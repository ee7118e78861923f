(* The two delivery workloads: applet pages served through
   [Server.user_request] behind an admission controller and a download
   breaker, on a virtual clock, one request at a time (a closed loop
   with one client).

   request-cold: every request is a first visit at a parameter point
   nobody asked for before; each chunk replays one fixed list of points
   against a freshly set-up server whose delivery cache is smaller than
   the list, so every lookup misses, inserts and evicts.

   request-warm: returning customers send a zipfian mix over a
   catalog-sized set of invocations; delivery and browser caches are
   warm. Each chunk starts with the vendor republishing one IP, so the
   first visit of each customer in the chunk re-fetches the applet
   jar. *)

open Jhdl

let link = Download.modem_56k
let tiers = [| License.Passive; License.Evaluator; License.Licensed; License.Vendor |]

type state = {
  points : Points.point array;  (** cold: the list; warm: the invocations *)
  users : string array;
  user_tier : License.tier array;
  mutable server : Server.t;
  mutable admission : Admission.t;
  mutable now : float;
  ops : int;
  op_user : int array;  (** per operation of the chunk: user index *)
  op_point : int array;  (** and point index *)
  results : (Server.session, Server.rejection) result option array;
  rng : Random.State.t;  (** chunk streams and check stimulus *)
  mutable registry : Metrics.t;  (** the program's own counters (traced runs) *)
  mutable fresh_edif : string array;  (** warm: independent exports *)
  (* traced runs: the build the server's generator just made *)
  mutable last_built : Ip_module.built option;
  mutable span : Span.t option;
  mutable shadow : Ip_module.built Delivery_cache.t;
  mutable shadow_admission : Admission.t;
}

(* catalog IPs whose generator records its build in a span when traced *)
let instrumented st ip =
  { ip with
    Ip_module.build =
      (fun a ->
         let b =
           match st.span with
           | Some sp -> Span.run sp "modgen.build" (fun () -> ip.Ip_module.build a)
           | None -> ip.Ip_module.build a
         in
         st.last_built <- Some b;
         b) }

let delivery_cap ~cold ~ops = if cold then ops / 4 else 256

let fresh_server st ~cold =
  let breaker = Breaker.create ~name:"downloads" ~seed:1 () in
  st.registry <-
    (if !Bench.tracing then Metrics.create "perfbench" else Metrics.nil);
  let server =
    Server.create ~vendor:"perfbench" ~breaker
      ~delivery_cap:(delivery_cap ~cold ~ops:(Array.length st.points))
      ~metrics:st.registry ()
  in
  (* publication behind the lint gate *)
  List.iter
    (fun ip ->
       match Server.publish_checked server ~now:st.now (instrumented st ip) with
       | Ok _ -> ()
       | Error m -> failwith ("publish: " ^ m))
    Catalog.all;
  Array.iteri
    (fun i user -> Server.register_user server ~user ~tier:st.user_tier.(i))
    st.users;
  st.server <- server;
  st.admission <- Admission.create ();
  st.shadow <-
    Delivery_cache.create
      ~cap_entries:(delivery_cap ~cold ~ops:(Array.length st.points))
      ~cap_bytes:(64 * 1024 * 1024) ();
  st.shadow_admission <- Admission.create ()

let serve st i =
  let p = st.points.(st.op_point.(i)) in
  let user = st.users.(st.op_user.(i)) in
  let r =
    Server.user_request st.server ~admission:st.admission ~params:p.Points.fields
      ~now:st.now ~user ~ip_name:p.Points.ip.Ip_module.ip_name ~link ()
  in
  st.now <- st.now +. 0.001;
  st.results.(i) <- Some r;
  match r with Ok _ -> 0 | Error _ -> 1

let run_chunk st lat =
  let failed = ref 0 in
  for i = 0 to st.ops - 1 do
    let t0 = Stats.now_ns () in
    let f = try serve st i with _ -> 1 in
    lat.(i) <- float_of_int (Stats.now_ns () - t0);
    failed := !failed + f
  done;
  !failed

(* The same operation, traced: the real request (its generator build
   nested inside), then the calls it makes into each layer, replayed in
   the program's order against shadow copies of the admission
   controller and delivery cache. *)
let traced_op st sp i =
  let p = st.points.(st.op_point.(i)) in
  let user = st.users.(st.op_user.(i)) in
  let tier = st.user_tier.(st.op_user.(i)) in
  Span.next_op sp;
  Span.run sp "op" (fun () ->
      st.last_built <- None;
      let now = st.now in
      let f = Span.run sp "webserver.user_request" (fun () -> serve st i) in
      Span.run sp "resilience.admit" (fun () ->
          match
            Admission.admit_now st.shadow_admission ~now
              ~cls:Admission.Jar_download ~tier ~user ()
          with
          | Ok ticket -> Admission.complete st.shadow_admission ~now ticket
          | Error _ -> ());
      let applet =
        Span.run sp "applet.create" (fun () ->
            Applet.create ~ip:p.Points.ip ~license:(License.of_tier tier) ~user ())
      in
      let descriptor = Points.descriptor p in
      let designs = st.shadow.Delivery_cache.designs in
      let hit =
        Span.run sp "cache.lookup" (fun () ->
            Option.is_some (Cache_store.find designs ~now ~descriptor))
      in
      (* a miss inserts, sized the way the server sizes it; where the
         server's own cache hit, the shadow takes the served build
         untimed, so that it holds what the server's cache holds *)
      let add b =
        ignore
          (Cache_store.add designs ~now ~descriptor
             ~bytes:(String.length (Snapshot.descriptor b.Ip_module.design)) b
           : string list)
      in
      (match (st.last_built, st.results.(i)) with
       | Some b, _ when not hit -> Span.run sp "cache.insert" (fun () -> add b)
       | None, Some (Ok { Server.elaborated = Some (b, _); _ }) when not hit -> add b
       | _ -> ());
      (match st.last_built with
       | None -> ()
       | Some b ->
         Span.run sp "netlist.edif" (fun () ->
             let text = Edif.of_design b.Ip_module.design in
             Span.note_bytes sp "netlist.edif" (String.length text)));
      let components = Applet.jar_components applet in
      Span.run sp "bundle.jars_for" (fun () ->
          ignore (Partition.jars_for components : Jar.t list));
      (match st.results.(i) with
       | Some (Ok s) ->
         Span.run sp "bundle.fetch_model" (fun () ->
             ignore (Download.fetch_jars link s.Server.fetched : Download.fetch list))
       | _ -> ());
      f)

let traced_chunk st sp =
  st.span <- Some sp;
  let failed = ref 0 in
  for i = 0 to st.ops - 1 do
    failed := !failed + (try traced_op st sp i with _ -> 1)
  done;
  st.span <- None;
  !failed

let sessions st =
  Array.to_list st.results
  |> List.filter_map (function Some (Ok s) -> Some s | _ -> None)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let layer_metrics st sp =
  let ss = sessions st in
  let n = float_of_int (max 1 (List.length ss)) in
  let c = Delivery_cache.combined_stats (Server.delivery_cache st.server) in
  let per_op name = Span.mean sp name ~per:1e3 in
  [ ("modgen.build_ms", Span.mean sp "modgen.build" ~per:1e6);
    ("netlist.edif_ms", Span.mean sp "netlist.edif" ~per:1e6);
    ("netlist.edif_kb", Span.mean_bytes sp "netlist.edif" /. 1024.);
    ("cache.hit_ratio", ratio c.Cache_store.hits c.Cache_store.lookups);
    ("cache.lookup_us", per_op "cache.lookup");
    ("cache.insert_us", per_op "cache.insert");
    ("cache.evictions", float_of_int c.Cache_store.evicted);
    ("cache.verify_rejects", float_of_int c.Cache_store.verify_rejects);
    ("resilience.admit_us", per_op "resilience.admit");
    ("resilience.shed", float_of_int (Admission.shed_total st.admission));
    ("applet.create_us", per_op "applet.create");
    ("bundle.jars_for_us", per_op "bundle.jars_for");
    ("bundle.fetch_model_us", per_op "bundle.fetch_model");
    ("bundle.page_kb",
     List.fold_left
       (fun acc s -> acc +. float_of_int (Partition.total_compressed s.Server.jars))
       0. ss
     /. n /. 1024.);
    ("bundle.page_download_modelled_s",
     List.fold_left (fun acc s -> acc +. s.Server.download_seconds) 0. ss /. n);
    (* the request less the build nested in it and the layer calls
       replayed for it *)
    ("webserver.request_self_us",
     float_of_int
       (Span.uncovered_ns sp ~real:"webserver.user_request"
          ~covered:
            (List.filter
               (fun n -> n <> "op" && n <> "webserver.user_request")
               (Span.names sp)))
     /. float_of_int (max 1 (Span.calls sp "webserver.user_request"))
     /. 1e3);
    ("webserver.browser_hit_ratio",
     let hits = Bench.counter st.registry "cache_hits_total" in
     ratio hits (hits + Bench.counter st.registry "cache_misses_total"));
    ("webserver.access_log_entries",
     float_of_int (List.length (Server.access_log st.server))) ]

(* ---- checks ---- *)

let common_checks st =
  let wrong = ref 0 in
  if not (Admission.accounting_closes st.admission) then incr wrong;
  Array.iter
    (function
      | Some (Ok s) ->
        if
          not
            (Check.close_enough s.Server.download_seconds
               (Check.download_seconds link s.Server.fetched))
        then incr wrong
      | _ -> ())
    st.results;
  !wrong

(* Every chunk replays the same points, so the costly checks (EDIF
   re-parse, arithmetic simulation) take a quarter of the operations
   per chunk in rotation: each point is covered every four chunks. *)
let check_cold st chunk =
  let wrong = ref (common_checks st) in
  Array.iteri
    (fun i r ->
       match r with
       | Some (Ok s) when (i + chunk) mod 4 = 0 ->
         let p = st.points.(st.op_point.(i)) in
         (match s.Server.elaborated with
          | None -> incr wrong
          | Some (built, edif) ->
            let rng = Random.State.make [| chunk; i |] in
            if
              not
                (Check.edif_matches built.Ip_module.design edif
                 && Check.arithmetic rng p built)
            then incr wrong)
       | _ -> ())
    st.results;
  !wrong

let check_warm st _chunk =
  let wrong = ref (common_checks st) in
  let c = Delivery_cache.combined_stats (Server.delivery_cache st.server) in
  if c.Cache_store.verify_rejects <> 0 then incr wrong;
  if Array.length st.fresh_edif = 0 then
    st.fresh_edif <-
      Array.map
        (fun p ->
           Edif.of_design
             (p.Points.ip.Ip_module.build (Points.assignment p)).Ip_module.design)
        st.points;
  let seen = Array.make (Array.length st.points) false in
  Array.iteri
    (fun i r ->
       match r with
       | Some (Ok s) ->
         let k = st.op_point.(i) in
         if not seen.(k) then begin
           seen.(k) <- true;
           match s.Server.elaborated with
           | None -> incr wrong
           | Some (_, edif) ->
             let edif = if !Check.corrupt then Check.corrupt_edif edif else edif in
             if not (String.equal edif st.fresh_edif.(k)) then incr wrong
         end
       | _ -> ())
    st.results;
  !wrong

(* ---- workloads ---- *)

let make ~seed ~cold ~ops ~users =
  let rng = Random.State.make [| seed; (if cold then 1 else 2) |] in
  let points = Points.delivery_points rng ~per_ip:(if cold then 10 else 8) in
  let n_users = if cold then Array.length points else users in
  let user_tier =
    Array.init n_users (fun _ -> tiers.(Random.State.int rng (Array.length tiers)))
  in
  let ops = if cold then Array.length points else ops in
  let st =
    { points;
      users = Array.init n_users (fun i -> Printf.sprintf "customer%04d" i);
      user_tier;
      server = Server.create ~vendor:"unused" ();
      admission = Admission.create ();
      now = 0.;
      ops;
      op_user = Array.init ops (fun i -> i mod n_users);
      op_point = Array.init ops (fun i -> i mod Array.length points);
      results = Array.make ops None;
      rng;
      registry = Metrics.nil;
      fresh_edif = [||];
      last_built = None;
      span = None;
      shadow = Delivery_cache.create ~cap_entries:1 ~cap_bytes:1 ();
      shadow_admission = Admission.create () }
  in
  st

(* zipf(1) over [n] ranks *)
let zipf_cdf n =
  let w = Array.init n (fun k -> 1. /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let draw cdf rng =
  let u = Random.State.float rng 1. in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length cdf - 1)

let cold ~seed =
  let setup () =
    let s = make ~seed ~cold:true ~ops:0 ~users:0 in
    fresh_server s ~cold:true;
    s
  in
  { Bench.ops_per_chunk = 60;
    chunks = 40;
    warmup_chunks = 1;
    setup_reps = 15;
    setup;
    next_chunk =
      (fun s _ ->
         Array.fill s.results 0 s.ops None;
         fresh_server s ~cold:true);
    run_chunk;
    check_chunk = check_cold;
    trace_chunks = 4;
    traced_chunk;
    real_span = "webserver.user_request";
    nested_in = [];
    layer_metrics }

let warm ~seed =
  let ops = 5_000 in
  let setup () =
    let s = make ~seed ~cold:false ~ops ~users:256 in
    fresh_server s ~cold:false;
    (* warm the delivery cache (every invocation once) and every
       customer's browser cache (one visit each) *)
    let n_points = Array.length s.points in
    Array.iteri
      (fun k _ ->
         s.op_point.(0) <- k;
         s.op_user.(0) <- k mod Array.length s.users;
         ignore (serve s 0 : int))
      s.points;
    Array.iteri
      (fun u _ ->
         s.op_point.(0) <- u mod n_points;
         s.op_user.(0) <- u;
         ignore (serve s 0 : int))
      s.users;
    s
  in
  let cdf = ref [||] in
  let republished = ref 0 in
  { Bench.ops_per_chunk = ops;
    chunks = 120;
    warmup_chunks = 2;
    setup_reps = 5;
    setup;
    next_chunk =
      (fun s _ ->
         if Array.length !cdf = 0 then cdf := zipf_cdf (Array.length s.points);
         (* the vendor republishes one IP between chunks *)
         let ip = List.nth Catalog.all (!republished mod List.length Catalog.all) in
         incr republished;
         (match Server.publish_checked s.server ~now:s.now (instrumented s ip) with
          | Ok _ -> ()
          | Error m -> failwith ("republish: " ^ m));
         Array.fill s.results 0 s.ops None;
         for i = 0 to s.ops - 1 do
           s.op_point.(i) <- draw !cdf s.rng;
           s.op_user.(i) <- Random.State.int s.rng (Array.length s.users)
         done);
    run_chunk;
    check_chunk = check_warm;
    trace_chunks = 20;
    traced_chunk;
    real_span = "webserver.user_request";
    nested_in = [];
    layer_metrics }
