(* audit-deep — the vendor's publish audit and the tier-1 deep-lint
   gate: base [Lint.run] plus [Deep_lint.run] without a node budget, as
   [lint_tool --deep] runs today, over every catalog IP at points small
   enough that one pass over the list takes about a second while BDD
   work still dominates. One operation is the audit of one design. *)

open Jhdl

let p ip fields = { Points.ip; fields }
let i2s = Points.i2s

(* The audit list is fixed, in a fixed order, like a publish audit of
   fixed catalog points: deep-lint cost swings by an order of magnitude
   with FIR taps or CORDIC pipelining, and the peak heap with the order
   of the pass, so drawing either from the seed would make them
   properties of the seed. The seed draws the confirmation stimulus.
   Every point builds and lints clean at error severity; KCMs are
   pipelined (see README: unpipelined KCMs with two or more tables fail
   the placement rule L401). *)
let fixed_points =
  let kcm (w, pw, signed, c) =
    p Catalog.kcm
      [ ("multiplicand_width", i2s w); ("product_width", i2s pw);
        ("signed", string_of_bool signed); ("pipelined", "true");
        ("constant", i2s c) ]
  in
  let fir (w, ow, signed, taps) =
    p Catalog.fir
      [ ("input_width", i2s w); ("output_width", i2s ow);
        ("signed", string_of_bool signed); ("taps", taps) ]
  in
  let counter (w, en) =
    p Catalog.counter [ ("width", i2s w); ("has_enable", string_of_bool en) ]
  in
  let cordic (w, it) =
    p Catalog.cordic
      [ ("width", i2s w); ("iterations", i2s it); ("pipelined", "false") ]
  in
  let wallace (a, b, pw) =
    p Catalog.wallace
      [ ("a_width", i2s a); ("b_width", i2s b); ("product_width", i2s pw) ]
  in
  let divider (n, m) =
    p Catalog.divider
      [ ("dividend_width", i2s n); ("divisor_width", i2s m);
        ("pipelined", "true") ]
  in
  List.map kcm
    [ (4, 10, true, -2606); (5, 19, false, 3291); (5, 12, true, 1866);
      (6, 13, true, -1533); (6, 19, false, 2529); (7, 8, false, 800);
      (7, 15, true, -2975); (8, 12, true, -56) ]
  @ List.map fir
      [ (2, 10, true, "edge3"); (2, 16, true, "boxcar4");
        (2, 14, false, "lowpass5"); (3, 14, false, "boxcar4");
        (3, 16, true, "highpass5"); (3, 12, true, "edge3");
        (3, 11, true, "lowpass5"); (3, 7, false, "boxcar4") ]
  @ List.map counter
      [ (4, true); (6, false); (8, false); (10, true); (12, true);
        (14, false); (16, true); (16, false) ]
  @ List.map cordic [ (6, 4); (6, 5); (6, 6); (6, 4); (6, 5); (6, 6); (7, 6); (7, 7) ]
  @ List.map wallace
      [ (2, 2, 2); (2, 3, 3); (3, 2, 5); (3, 3, 2); (3, 4, 7); (4, 3, 6);
        (4, 4, 7); (4, 4, 8) ]
  @ List.map divider [ (4, 2); (5, 3); (6, 2); (6, 3); (7, 2); (7, 3); (8, 2); (8, 3) ]
  |> Array.of_list

type state = {
  seed : int;
  designs : Ip_module.built array;
  reports : (Lint.report * Lint.report) option array;  (** base, deep *)
  mutable first : (Lint.report * Lint.report) array option;
  mutable deep_stats : (int * int * int) list;  (** nodes, lookups, hits *)
}

let setup ~seed () =
  (* elaboration *)
  let designs =
    Array.map
      (fun pt -> pt.Points.ip.Ip_module.build (Points.assignment pt))
      fixed_points
  in
  { seed; designs; reports = Array.make (Array.length designs) None;
    first = None; deep_stats = [] }

let audit (b : Ip_module.built) =
  let base = Lint.run b.Ip_module.design in
  let deep = Deep_lint.run b.Ip_module.design in
  (base, deep)

let run_chunk st lat =
  let failed = ref 0 in
  Array.iteri
    (fun i b ->
       let t0 = Stats.now_ns () in
       (match audit b with
        | r -> st.reports.(i) <- Some r
        | exception _ ->
          st.reports.(i) <- None;
          incr failed);
       lat.(i) <- float_of_int (Stats.now_ns () - t0))
    st.designs;
  !failed

(* ---- checks ---- *)

let label (n : Types.net) =
  match n.Types.source_wire with
  | Some w -> Some (Printf.sprintf "%s[%d]" (Wire.full_name w) n.Types.source_bit)
  | None -> None

(* Confirm L501/L502 by seeded random simulation: a net proved constant
   never toggles, the nets of a redundant pair never differ. *)
let confirm rng (b : Ip_module.built) (deep : Lint.report) =
  let design = b.Ip_module.design in
  let findings =
    List.filter
      (fun d -> d.Lint.rule_id = "L501" || d.Lint.rule_id = "L502")
      deep.Lint.diagnostics
  in
  if findings = [] then true
  else begin
    let by_label = Hashtbl.create 256 in
    List.iter
      (fun (n : Types.net) ->
         match (label n, n.Types.source_wire) with
         | Some l, Some w -> Hashtbl.replace by_label l (w, n.Types.source_bit)
         | _ -> ())
      (Design.all_nets design);
    let clock = Check.clock_of b in
    let sim = Simulator.create ?clock design in
    let inputs =
      List.filter
        (fun (pt : Design.port) -> Some pt.Design.port_name <> b.Ip_module.clock_port)
        (Design.inputs design)
    in
    let groups =
      List.map
        (fun d ->
           ( d.Lint.rule_id,
             List.filter_map (fun l -> Hashtbl.find_opt by_label l) d.Lint.nets ))
        findings
    in
    let first = Hashtbl.create 16 in
    let ok = ref true in
    for step = 0 to 31 do
      List.iter
        (fun (pt : Design.port) ->
           let w = Wire.width pt.Design.port_wire in
           Simulator.set_input sim pt.Design.port_name
             (Bits.of_int ~width:w (Random.State.int rng (1 lsl (min w 30)))))
        inputs;
      Simulator.propagate sim;
      List.iteri
        (fun g (rule, nets) ->
           let values =
             List.map (fun (w, bit) -> Bits.get (Simulator.get sim w) bit) nets
           in
           (* one observed value: a constant net toggles, or one net of
              a redundant pair differs from the others *)
           let values =
             match values with
             | v :: rest when !Check.corrupt && step = 1 && g = 0 ->
               (if Bit.equal v Bit.Zero then Bit.One else Bit.Zero) :: rest
             | values -> values
           in
           match (rule, values) with
           | "L501", v :: _ ->
             (match Hashtbl.find_opt first g with
              | None -> Hashtbl.replace first g v
              | Some v0 -> if not (Bit.equal v v0) then ok := false)
           | _, v :: rest -> if not (List.for_all (Bit.equal v) rest) then ok := false
           | _, [] -> ())
        groups;
      if clock <> None then Simulator.cycle sim
    done;
    !ok
  end

let check_chunk st chunk =
  let wrong = ref 0 in
  (match st.first with
   | Some first ->
     (* later passes must reproduce the first pass's reports exactly *)
     Array.iteri
       (fun i r -> match r with Some r when r <> first.(i) -> incr wrong | _ -> ())
       st.reports
   | None ->
     Array.iteri
       (fun i r ->
          match r with
          | None -> ()  (* already counted as a failed operation *)
          | Some (base, deep) ->
            let rng = Random.State.make [| st.seed; chunk; i |] in
            if not (Lint.errors base = [] && confirm rng st.designs.(i) deep) then
              incr wrong)
       st.reports;
     if !wrong = 0 && Array.for_all Option.is_some st.reports then
       st.first <- Some (Array.map Option.get st.reports));
  !wrong

(* ---- traced replay ---- *)

(* The real audit (base lint, then deep lint with the program's own BDD
   counters) under an [audit] span; then the analyses those two run
   inside them, replayed on their own: [Const_prop] (run by both) and
   [Absint] (run by [Deep_lint]). *)
let traced_chunk st sp =
  let failed = ref 0 in
  Array.iteri
    (fun i (b : Ip_module.built) ->
       Span.next_op sp;
       let d = b.Ip_module.design in
       match
         Span.run sp "op" (fun () ->
             let registry = Metrics.create "analysis" in
             let r =
               Span.run sp "audit" (fun () ->
                   let base = Span.run sp "lint.run" (fun () -> Lint.run d) in
                   let deep =
                     Span.run sp "analysis.deep_lint" (fun () ->
                         Deep_lint.run ~metrics:registry d)
                   in
                   (base, deep))
             in
             ignore (Span.run sp "lint.const_prop" (fun () -> Const_prop.analyze d) : Const_prop.t);
             ignore (Span.run sp "analysis.absint" (fun () -> Absint.analyze d) : Absint.t);
             let get = Bench.counter registry in
             st.deep_stats <-
               (get "bdd_nodes_total", get "bdd_cache_lookups_total", get "bdd_cache_hits_total")
               :: st.deep_stats;
             r)
       with
       | r -> st.reports.(i) <- Some r
       | exception _ ->
         st.reports.(i) <- None;
         incr failed)
    st.designs;
  !failed

let layer_metrics st sp =
  let ms name = Span.mean sp name ~per:1e6 in
  let runs = float_of_int (max 1 (List.length st.deep_stats)) in
  let nodes, lookups, hits =
    List.fold_left
      (fun (a, b, c) (x, y, z) -> (a + x, b + y, c + z))
      (0, 0, 0) st.deep_stats
  in
  let findings =
    Array.fold_left
      (fun acc r ->
         match r with
         | Some (_, deep) -> acc + List.length deep.Lint.diagnostics
         | None -> acc)
      0 st.reports
  in
  [ ("lint.run_ms", ms "lint.run");
    ("lint.const_prop_ms", ms "lint.const_prop");
    ("analysis.absint_ms", ms "analysis.absint");
    ("analysis.deep_lint_ms", ms "analysis.deep_lint");
    ("analysis.bdd_nodes", float_of_int nodes /. runs);
    ("analysis.bdd_memo_hit_ratio",
     if lookups = 0 then 0. else float_of_int hits /. float_of_int lookups);
    ("analysis.findings", float_of_int findings) ]

let spec ~seed =
  { Bench.ops_per_chunk = Array.length fixed_points;
    chunks = 14;
    warmup_chunks = 1;
    setup_reps = 15;
    setup = setup ~seed;
    next_chunk = (fun _ _ -> ());
    run_chunk;
    check_chunk;
    trace_chunks = 2;
    traced_chunk;
    real_span = "audit";
    nested_in =
      [ ("lint.const_prop", "lint.run and analysis.deep_lint");
        ("analysis.absint", "analysis.deep_lint") ];
    layer_metrics }
