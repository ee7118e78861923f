(* The run protocol every workload shares: timed set-ups, an untimed
   warm-up, then a fixed number of equal chunks, each timed as a whole
   and, op by op, with the monotonic clock; output checks run after
   every chunk, outside the timing. A traced run replays the same
   chunks through [traced_chunk] instead and reports per-layer
   figures. *)

type 'c spec = {
  ops_per_chunk : int;
  chunks : int;  (** timed chunks in a run of [--seconds 10] *)
  warmup_chunks : int;
  setup_reps : int;
  setup : unit -> 'c;
      (** everything before the first timed operation; timed *)
  next_chunk : 'c -> int -> unit;  (** untimed preparation of chunk [i] *)
  run_chunk : 'c -> float array -> int;
      (** the timed work: fills per-operation host times (ns) and
          returns the operations that failed *)
  check_chunk : 'c -> int -> int;
      (** untimed output checks of the chunk just run: operations whose
          outputs are wrong, plus one per broken chunk-level invariant *)
  trace_chunks : int;
  traced_chunk : 'c -> Span.t -> int;
      (** each operation is an [op] span holding the real operation's
          span and the layer calls replayed for it *)
  real_span : string;  (** the span of the real operation *)
  nested_in : (string * string) list;
      (** replayed layers whose work the program does inside another
          layer's call: (layer, enclosing layer) *)
  layer_metrics : 'c -> Span.t -> (string * float) list;
}

type outcome = {
  attempted : int;
  failed : int;
  wrong : int;  (** failures found by output checks *)
  metrics : (string * float) list;
  notes : string list;  (** extra lines for the log *)
}

(* set before the workload specs are built: traced runs hand the
   program live metric registries, untraced runs the nil one *)
let tracing = ref false

(* a counter or gauge of one of the program's metric registries *)
let counter registry name =
  match List.assoc_opt name (Jhdl.Metrics.snapshot registry) with
  | Some (Jhdl.Metrics.Counter_sample n) | Some (Jhdl.Metrics.Gauge_sample n) -> n
  | _ -> 0

let seconds_of_ns ns = float_of_int ns /. 1e9

(* scale the chunk count with --seconds, never below five chunks *)
let chunks_for spec ~seconds =
  max 5 (int_of_float (Float.round (float_of_int spec.chunks *. seconds /. 10.)))

let heap_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

(* Machine speed. A 2-core machine shared with other tenants was
   measured alternating between speeds up to 1.4x apart, in phases of
   seconds to tens of seconds; a chunk median cannot remove a phase
   that covers a whole run. So every timed stretch is bracketed by a fixed calibration
   kernel of the benchmark's own, and host time is reported at the
   reference speed at which the kernel takes [reference_ns]: measured
   time * reference_ns / kernel time (mean of the runs before and
   after). The kernel has two halves because neither alone slows down
   like the program does: a dependent walk over a 128 KiB table
   (under-corrects) and small-object hashing and sorting (over-corrects).
   It starts from an empty minor heap and allocates less than one, so
   no collection, and none of the workload's GC work, falls inside it. *)
let reference_ns = 2_000_000.

let cal_table =
  let n = 16384 in
  Array.init n (fun i -> ((i * 7919) + 13) land (n - 1))

let calibrate () =
  Gc.minor ();
  let t0 = Stats.now_ns () in
  let x = ref 0 and acc = ref 0 in
  for _ = 1 to 250_000 do
    x := Array.unsafe_get cal_table ((!x + !acc) land 16383);
    acc := (!acc * 31) + !x
  done;
  let h = Hashtbl.create 256 in
  for i = 0 to 1999 do
    Hashtbl.replace h (string_of_int (i * 7919)) i;
    match Hashtbl.find_opt h (string_of_int (i * 31)) with
    | Some v -> acc := !acc + v
    | None -> incr acc
  done;
  let l = List.sort compare (List.init 2000 (fun i -> (i * 7919) land 1023)) in
  ignore (Sys.opaque_identity (!acc + List.hd l));
  float_of_int (Stats.now_ns () - t0)

let speed_factor before after = 2. *. reference_ns /. (before +. after)

(* one set-up, timed from a collected heap, at reference speed *)
let timed_setup spec =
  Gc.full_major ();
  let before = calibrate () in
  let t0 = Stats.now_ns () in
  let c = spec.setup () in
  let dt = seconds_of_ns (Stats.now_ns () - t0) in
  (c, dt *. speed_factor before (calibrate ()))

(* [setup_s]: the median of [setup_reps] set-ups. The first one serves
   the run; the others are made after the timed phase, so that the
   heap they leave does not count in its peak. *)
let setup_median spec first =
  let rest =
    List.init (spec.setup_reps - 1) (fun _ -> snd (timed_setup spec))
  in
  Stats.median (Array.of_list (first :: rest))

let run_untraced spec ~seconds =
  let c, first_setup = timed_setup spec in
  let ops = spec.ops_per_chunk in
  let lat = Array.make ops 0. in
  let failed = ref 0 and wrong = ref 0 and attempted = ref 0 in
  let one_chunk i =
    spec.next_chunk c i;
    let t0 = Stats.now_ns () in
    let f = spec.run_chunk c lat in
    let dt = Stats.now_ns () - t0 in
    let w = spec.check_chunk c i in
    attempted := !attempted + ops;
    failed := !failed + f + w;
    wrong := !wrong + w;
    dt
  in
  for i = 0 to spec.warmup_chunks - 1 do
    ignore (one_chunk i : int)
  done;
  let n = chunks_for spec ~seconds in
  let chunk_s = Array.make n 0. and raw_s = Array.make n 0. in
  let factor = Array.make n 0. in
  let p50 = Array.make n 0. and tail = Array.make n 0. in
  (* peak major heap over the timed phase: sampled at the end of every
     major cycle and of every chunk *)
  let peak = ref (Gc.quick_stat ()).Gc.heap_words in
  let sample () =
    let h = (Gc.quick_stat ()).Gc.heap_words in
    if h > !peak then peak := h
  in
  let alarm = Gc.create_alarm sample in
  let cal = ref (calibrate ()) in
  for k = 0 to n - 1 do
    let dt = one_chunk (spec.warmup_chunks + k) in
    sample ();
    let after = calibrate () in
    let f = speed_factor !cal after in
    cal := after;
    factor.(k) <- f;
    raw_s.(k) <- seconds_of_ns dt;
    chunk_s.(k) <- raw_s.(k) *. f;
    if ops >= Stats.min_latency_samples then begin
      p50.(k) <- Stats.median lat /. 1e6 *. f;
      tail.(k) <- Stats.tail lat /. 1e6 *. f
    end
  done;
  Gc.delete_alarm alarm;
  let setup_s = setup_median spec first_setup in
  let median_chunk = Stats.median chunk_s in
  let latency =
    if ops >= Stats.min_latency_samples then
      [ ("latency_p50_ms", Stats.median p50);
        ("latency_tail_ms", Stats.median tail) ]
    else []
  in
  { attempted = !attempted;
    failed = !failed;
    wrong = !wrong;
    metrics =
      [ ("setup_s", setup_s);
        ("ops_per_s", float_of_int ops /. median_chunk) ]
      @ latency
      @ [ ("heap_peak_mb", heap_mb !peak) ];
    notes =
      [ Printf.sprintf
          "timed chunks=%d ops/chunk=%d median chunk=%.6f s at reference \
           speed, %.6f s host (min %.6f max %.6f), median speed factor \
           %.4f, tail quantile=%.4f"
          n ops median_chunk (Stats.median raw_s)
          (Array.fold_left Float.min infinity raw_s)
          (Array.fold_left Float.max 0. raw_s)
          (Stats.median factor)
          (if ops >= Stats.min_latency_samples then Stats.tail_quantile ops
           else nan) ] }

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let run_traced spec ~trace_out =
  let c, setup_s = timed_setup spec in
  let ops = spec.ops_per_chunk in
  let lat = Array.make ops 0. in
  let failed = ref 0 and wrong = ref 0 and attempted = ref 0 in
  let chunk = ref 0 in
  let untraced () =
    spec.next_chunk c !chunk;
    let w0 = allocated_words () in
    let t0 = Stats.now_ns () in
    let f = spec.run_chunk c lat in
    let dt = Stats.now_ns () - t0 in
    let words = allocated_words () -. w0 in
    let w = spec.check_chunk c !chunk in
    incr chunk;
    attempted := !attempted + ops;
    failed := !failed + f + w;
    wrong := !wrong + w;
    (dt, words)
  in
  for _ = 1 to spec.warmup_chunks do
    ignore (untraced () : int * float)
  done;
  (* allocation per operation, from untraced chunks: it repeats exactly *)
  let _, words = untraced () in
  let dt, _ = untraced () in
  let untraced_op_us = float_of_int dt /. float_of_int ops /. 1e3 in
  let span = Span.create () in
  for _ = 1 to spec.trace_chunks do
    spec.next_chunk c !chunk;
    let f = spec.traced_chunk c span in
    let w = spec.check_chunk c !chunk in
    incr chunk;
    attempted := !attempted + ops;
    failed := !failed + f + w;
    wrong := !wrong + w
  done;
  Span.write_chrome span trace_out;
  let ops_traced = float_of_int (Span.calls span "op") in
  let per_op_us ns = float_of_int ns /. ops_traced /. 1e3 in
  let traced_op_us = per_op_us (Span.total_ns span "op") in
  let real_ns = Span.total_ns span spec.real_span in
  (* Every layer's time as a share of the real operation's. A replayed
     layer runs beside the real call, not inside it, so the real call
     still holds that work: the shares of layers that do not run
     inside another layer add up, with the rest, to the real call. *)
  let layers =
    List.filter (fun n -> n <> "op" && n <> spec.real_span) (Span.names span)
  in
  let top = List.filter (fun n -> not (List.mem_assoc n spec.nested_in)) layers in
  let pct ns = 100. *. float_of_int ns /. float_of_int (max 1 real_ns) in
  let shares =
    List.map
      (fun n ->
         Printf.sprintf "%s %.1f%%%s" n (pct (Span.total_ns span n))
           (match List.assoc_opt n spec.nested_in with
            | Some outer -> " (inside " ^ outer ^ ")"
            | None -> ""))
      layers
    @ [ Printf.sprintf "rest of %s %.1f%%" spec.real_span
          (pct (Span.uncovered_ns span ~real:spec.real_span ~covered:top)) ]
  in
  (* span bookkeeping on its own: empty spans, each kept in full *)
  let probe = Span.create () in
  let n_probe = 20_000 in
  let t0 = Stats.now_ns () in
  for _ = 1 to n_probe do
    Span.run probe "empty" ignore
  done;
  let span_ns = float_of_int (Stats.now_ns () - t0) /. float_of_int n_probe in
  let spans_per_op = float_of_int (Span.total_calls span) /. ops_traced in
  let real_us = per_op_us real_ns in
  { attempted = !attempted;
    failed = !failed;
    wrong = !wrong;
    metrics =
      spec.layer_metrics c span
      @ [ ("gc.alloc_words_per_op", words /. float_of_int ops) ];
    notes =
      [ Printf.sprintf "set-up %.6f s; host us/op: untraced %.3f, traced %.3f \
                        (real %s %.3f, replayed calls and spans %.3f)"
          setup_s untraced_op_us traced_op_us spec.real_span real_us
          (traced_op_us -. real_us);
        Printf.sprintf "span bookkeeping alone: %.1f ns per empty span, \
                        %.1f spans per op, %.3f us/op"
          span_ns spans_per_op (span_ns *. spans_per_op /. 1e3);
        "share of the real operation: " ^ String.concat ", " shares;
        "spans written to " ^ trace_out ] }
