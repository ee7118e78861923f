(* Spans recorded from the benchmark's own code around calls into the
   program's layers. A span has a name, start and end (monotonic ns),
   the span that encloses it and the operation it belongs to. Per-name
   totals (calls, time) are kept for every span; full records only for
   the first [keep] spans, which are written out as Chrome Trace Event
   JSON. *)

let keep = 100_000

type record = {
  id : int;
  name : string;
  op : int;
  parent : int;  (* -1 at the top *)
  start_ns : int;
  end_ns : int;
}

type agg = {
  mutable calls : int;
  mutable total_ns : int;
  mutable bytes : int;  (* sizes noted by the caller, e.g. output text *)
}

type frame = {
  f_id : int;
  f_name : string;
  f_start : int;
}

type t = {
  mutable kept : record list;  (* newest first *)
  mutable n_kept : int;
  mutable next_id : int;
  mutable op : int;
  mutable stack : frame list;
  aggs : (string, agg) Hashtbl.t;
}

let create () =
  { kept = []; n_kept = 0; next_id = 0; op = 0; stack = [];
    aggs = Hashtbl.create 32 }

(* start the next operation: later spans carry its id *)
let next_op t = t.op <- t.op + 1

let agg t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> a
  | None ->
    let a = { calls = 0; total_ns = 0; bytes = 0 } in
    Hashtbl.replace t.aggs name a;
    a

let enter t name =
  let f =
    { f_id = t.next_id; f_name = name; f_start = Stats.now_ns () }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- f :: t.stack

let leave t =
  let stop = Stats.now_ns () in
  match t.stack with
  | [] -> invalid_arg "Span.leave: no open span"
  | f :: rest ->
    t.stack <- rest;
    let dur = stop - f.f_start in
    let parent = match rest with p :: _ -> p.f_id | [] -> -1 in
    let a = agg t f.f_name in
    a.calls <- a.calls + 1;
    a.total_ns <- a.total_ns + dur;
    if t.n_kept < keep then begin
      t.kept <-
        { id = f.f_id; name = f.f_name; op = t.op; parent;
          start_ns = f.f_start; end_ns = stop }
        :: t.kept;
      t.n_kept <- t.n_kept + 1
    end

(* [run t name f] — [f ()] inside a span; exceptions close the span. *)
let run t name f =
  enter t name;
  match f () with
  | v ->
    leave t;
    v
  | exception e ->
    leave t;
    raise e

let note_bytes t name n =
  let a = agg t name in
  a.bytes <- a.bytes + n

let mean_bytes t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a when a.calls > 0 -> float_of_int a.bytes /. float_of_int a.calls
  | _ -> 0.

let calls t name =
  match Hashtbl.find_opt t.aggs name with Some a -> a.calls | None -> 0

let total_ns t name =
  match Hashtbl.find_opt t.aggs name with Some a -> a.total_ns | None -> 0

(* the time of span [real] that the spans named in [covered] do not
   account for *)
let uncovered_ns t ~real ~covered =
  total_ns t real - List.fold_left (fun acc n -> acc + total_ns t n) 0 covered

let total_calls t = Hashtbl.fold (fun _ a acc -> acc + a.calls) t.aggs 0

(* mean duration per call, in the given unit (1e3 for us, 1e6 for ms) *)
let mean t name ~per =
  match Hashtbl.find_opt t.aggs name with
  | Some a when a.calls > 0 ->
    float_of_int a.total_ns /. float_of_int a.calls /. per
  | _ -> 0.

let names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.aggs [] |> List.sort compare

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome Trace Event format: complete ("X") events, microsecond
   timestamps relative to the first kept span. *)
let write_chrome t path =
  let records = List.rev t.kept in
  let origin = match records with r :: _ -> r.start_ns | [] -> 0 in
  let oc = open_out_bin path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iteri
    (fun i r ->
       if i > 0 then output_string oc ",\n";
       Printf.fprintf oc
         "{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
          \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}"
         (json_string r.name)
         (float_of_int (r.start_ns - origin) /. 1e3)
         (float_of_int (r.end_ns - r.start_ns) /. 1e3)
         r.id r.parent r.op)
    records;
  output_string oc "\n]}\n";
  close_out oc
