(* perfbench — the benchmark of the delivery and co-simulation paths.

   main.exe --workload NAME|all --seed N --seconds S --trace 0|1

   Prints a provenance header, per-workload accounting and, as the last
   line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
   With --trace 0 the metrics are the end-to-end ones, with --trace 1
   the per-layer ones of a traced replay (spans written as Chrome Trace
   Event JSON under perfbench/traces/). *)

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms"); ("heap_peak_mb", "MB") ]

let per_layer =
  [ ("modgen.build_ms", "ms"); ("netlist.edif_ms", "ms");
    ("netlist.edif_kb", "kB"); ("cache.hit_ratio", "ratio");
    ("cache.lookup_us", "us"); ("cache.insert_us", "us");
    ("cache.evictions", "count");
    ("cache.verify_rejects", "count"); ("resilience.admit_us", "us");
    ("resilience.shed", "count"); ("applet.create_us", "us");
    ("bundle.jars_for_us", "us"); ("bundle.fetch_model_us", "us");
    ("bundle.page_kb", "kB"); ("bundle.page_download_modelled_s", "s");
    ("webserver.request_self_us", "us");
    ("webserver.browser_hit_ratio", "ratio");
    ("webserver.access_log_entries", "count"); ("lint.run_ms", "ms");
    ("lint.const_prop_ms", "ms"); ("analysis.absint_ms", "ms");
    ("analysis.deep_lint_ms", "ms"); ("analysis.bdd_nodes", "count");
    ("analysis.bdd_memo_hit_ratio", "ratio"); ("analysis.findings", "count");
    ("sim.cycle_us.local", "us"); ("sim.cycle_us.remote", "us");
    ("sim.snapshot_us", "us"); ("sim.snapshot_bytes", "B");
    ("sim.restore_us", "us"); ("netproto.encode_us", "us");
    ("netproto.decode_us", "us"); ("netproto.handle_us", "us");
    ("netproto.checkpoint_us", "us"); ("netproto.exchanges", "count");
    ("netproto.retries", "count"); ("netproto.resumes", "count");
    ("netproto.replayed_messages", "count"); ("netproto.checkpoints", "count");
    ("netproto.cycle_modelled_ms", "ms");
    ("netproto.wire_bytes_per_cycle", "B"); ("gc.alloc_words_per_op", "words") ]

type packed = Spec : 'c Bench.spec -> packed

let workloads =
  [ ("request-cold", fun ~seed -> Spec (Request.cold ~seed));
    ("request-warm", fun ~seed -> Spec (Request.warm ~seed));
    ("cosim-session", fun ~seed -> Spec (Cosim_session.spec ~seed));
    ("audit-deep", fun ~seed -> Spec (Audit.spec ~seed)) ]

let git_revision () =
  (* the checkout's own .git, when it has one *)
  let read path =
    try
      let ic = open_in path in
      let line = input_line ic in
      close_in ic;
      Some (String.trim line)
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
    let ref_ = String.sub head 5 (String.length head - 5) in
    Option.value (read (".git/" ^ ref_)) ~default:"unknown"
  | Some rev -> rev
  | None -> "unknown (no .git)"

let provenance ~workload ~seed ~seconds ~trace =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.printf
    "# perfbench rev=%s ocaml=%s date=%04d-%02d-%02dT%02d:%02d:%02dZ nproc=%d \
     workload=%s seed=%d seconds=%g trace=%b\n%!"
    (git_revision ()) Sys.ocaml_version (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec
    (Domain.recommended_domain_count ())
    workload seed seconds trace

let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "non-finite metric"

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit_, v) ->
             Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
               (Span.json_string name) (number v) (Span.json_string unit_))
          metrics))

(* every declared metric, in declared order; a layer the workload never
   calls reads 0 *)
let complete declared got =
  List.map
    (fun (name, unit_) ->
       (name, unit_, Option.value (List.assoc_opt name got) ~default:0.))
    declared

let run_one name ~seed ~seconds ~trace =
  let (Spec spec) = (List.assoc name workloads) ~seed in
  let o =
    if trace then begin
      let dir = Filename.concat "perfbench" "traces" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Bench.run_traced spec
        ~trace_out:(Filename.concat dir (Printf.sprintf "%s-seed%d.json" name seed))
    end
    else Bench.run_untraced spec ~seconds
  in
  List.iter (fun l -> Printf.printf "# %s: %s\n" name l) o.Bench.notes;
  Printf.printf "# accounting %s: attempted=%d failed=%d (wrong outputs %d)\n%!"
    name o.Bench.attempted o.Bench.failed o.Bench.wrong;
  o

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME one of " ^ String.concat ", " (List.map fst workloads) ^ ", or all");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S nominal length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--corrupt-check", Arg.Set Check.corrupt,
       " damage one output inside every check (shows the checks can fail)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME|all --seed N --seconds S --trace 0|1";
  let names =
    if !workload = "all" then List.map fst workloads
    else if List.mem_assoc !workload workloads then [ !workload ]
    else begin
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
    end
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  Stats.self_test ();
  let trace = !trace = 1 in
  Bench.tracing := trace;
  provenance ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace;
  let declared = if trace then per_layer else end_to_end in
  let results =
    List.map (fun name -> (name, run_one name ~seed:!seed ~seconds:!seconds ~trace)) names
  in
  let attempted = List.fold_left (fun a (_, o) -> a + o.Bench.attempted) 0 results in
  let failed = List.fold_left (fun a (_, o) -> a + o.Bench.failed) 0 results in
  let correct = List.for_all (fun (_, o) -> o.Bench.wrong = 0) results in
  let metrics =
    match results with
    | [ (_, o) ] -> complete declared o.Bench.metrics
    | _ ->
      List.concat_map
        (fun (name, o) ->
           List.map
             (fun (m, u, v) -> (name ^ "/" ^ m, u, v))
             (complete declared o.Bench.metrics))
        results
  in
  print_endline (result_json ~correct ~attempted ~failed metrics)
