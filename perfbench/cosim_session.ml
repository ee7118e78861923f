(* cosim-session — the Figure 4 scenario: a system simulator clocks two
   black boxes every system cycle, driving both, clocking, and reading
   every output. The local box is a CORDIC applet over the loopback
   (no session); the remote one is a crash-safe FIR box over the LAN
   preset with the default session policy, a seeded 2% mix of every
   wire fault and rare session crashes. One operation is one system
   cycle; the session runs on across chunks. *)

open Jhdl

let cycles_per_chunk = 400
let fault_rate = 0.02
let crash_rate = 0.002

(* the reference interpreter is ~40x slower than the kernel *)
let reference_every = 8

type state = {
  rng : Random.State.t;
  fault_seed : int;
  cordic : Ip_module.built;
  fir : Ip_module.built;
  mutable cosim : Cosim.t;
  mutable registry : Metrics.t;
  angles : Bits.t array;
  xs : Bits.t array;
  out_cos : Bits.t array;
  out_sin : Bits.t array;
  out_y : Bits.t array;
  mutable elapsed_s : float;  (** modelled session time before the chunk *)
  mutable bytes : int;
  (* checks: an unfaulted FIR, the reference CORDIC, the input history *)
  mutable golden : (Simulator.t * Reference.t) option;
  mutable history : int list;  (** newest first *)
  (* traced replay *)
  mutable shadow : shadow option;
  mutable modelled_s : float;
  mutable modelled_bytes : int;
  mutable modelled_cycles : int;
}

and shadow = {
  local_sim : Simulator.t;
  remote_sim : Simulator.t;
  restore_sim : Simulator.t;
  endpoint : Endpoint.t;
  mutable seq : int;
  mutable exchanges : int;
  mutable blob : string;
}

let sim_of b = Simulator.create ?clock:(Check.clock_of b) b.Ip_module.design

let build ip = ip.Ip_module.build (Ip_module.defaults ip)

let fir_coefficients =
  List.assoc
    (Ip_module.choice_param (Ip_module.defaults Catalog.fir) "taps")
    Catalog.fir_coefficient_sets

(* the session's set-up: builds, simulator compiles, attach (the remote
   box's [Hello] handshake runs inside [attach]) *)
let open_session st =
  let cosim = Cosim.create () in
  st.registry <-
    (if !Bench.tracing then Metrics.create "cosim" else Metrics.nil);
  let local = Endpoint.of_simulator ~name:"cordic" (sim_of st.cordic) in
  let remote =
    Endpoint.of_simulator ~metrics:st.registry ~name:"fir" (sim_of st.fir)
  in
  Cosim.attach cosim local Network.loopback;
  Cosim.attach cosim
    ~faults:
      { (Fault.degraded ~rate:fault_rate ~seed:st.fault_seed) with
        Fault.session_crash_rate = crash_rate }
    ~session:Cosim.default_session_policy ~metrics:st.registry remote
    Network.lan;
  st.cosim <- cosim;
  st.elapsed_s <- 0.;
  st.bytes <- 0

let setup ~seed () =
  let rng = Random.State.make [| seed; 3 |] in
  let n = cycles_per_chunk in
  let st =
    { rng;
      fault_seed = Random.State.bits rng;
      cordic = build Catalog.cordic;
      fir = build Catalog.fir;
      cosim = Cosim.create ();
      registry = Metrics.nil;
      angles = Array.make n (Bits.zero 1);
      xs = Array.make n (Bits.zero 1);
      out_cos = Array.make n (Bits.zero 1);
      out_sin = Array.make n (Bits.zero 1);
      out_y = Array.make n (Bits.zero 1);
      elapsed_s = 0.;
      bytes = 0;
      golden = None;
      history = [];
      shadow = None;
      modelled_s = 0.;
      modelled_bytes = 0;
      modelled_cycles = 0 }
  in
  open_session st;
  st

let angle_width = Ip_module.int_param (Ip_module.defaults Catalog.cordic) "width"
let x_width = Ip_module.int_param (Ip_module.defaults Catalog.fir) "input_width"

let next_chunk st _ =
  let quarter = 1 lsl (angle_width - 2) in
  let half = 1 lsl (x_width - 1) in
  for k = 0 to cycles_per_chunk - 1 do
    st.angles.(k) <-
      Bits.of_int ~width:angle_width
        (Random.State.int st.rng ((2 * quarter) + 1) - quarter);
    st.xs.(k) <- Bits.of_int ~width:x_width (Random.State.int st.rng (2 * half) - half)
  done;
  st.elapsed_s <- Cosim.elapsed_seconds st.cosim;
  st.bytes <- Cosim.total_bytes st.cosim

let system_cycle st k =
  let c = st.cosim in
  Cosim.set_inputs c ~box:"cordic" [ ("angle", st.angles.(k)) ];
  Cosim.set_inputs c ~box:"fir" [ ("x", st.xs.(k)) ];
  Cosim.cycle c;
  st.out_cos.(k) <- Cosim.get_output c ~box:"cordic" "cos";
  st.out_sin.(k) <- Cosim.get_output c ~box:"cordic" "sin";
  st.out_y.(k) <- Cosim.get_output c ~box:"fir" "y"

let account st =
  st.modelled_s <- st.modelled_s +. (Cosim.elapsed_seconds st.cosim -. st.elapsed_s);
  st.modelled_bytes <- st.modelled_bytes + (Cosim.total_bytes st.cosim - st.bytes);
  st.modelled_cycles <- st.modelled_cycles + cycles_per_chunk

let run_chunk st lat =
  let failed = ref 0 in
  for k = 0 to cycles_per_chunk - 1 do
    let t0 = Stats.now_ns () in
    (try system_cycle st k with _ -> incr failed);
    lat.(k) <- float_of_int (Stats.now_ns () - t0)
  done;
  account st;
  !failed

(* FIR output read after the clock edge with x(n) still applied: the
   registers already hold x(n)'s partial products, so
   y = c0*x(n) + sum_{k>=1} c_k * x(n+1-k) *)
let fir_expected history =
  let coeffs = Array.of_list fir_coefficients in
  let xs = Array.of_list history in  (* xs.(0) = x(n) *)
  let at j = if j < Array.length xs then xs.(j) else 0 in
  let sum = ref (coeffs.(0) * at 0) in
  for k = 1 to Array.length coeffs - 1 do
    sum := !sum + (coeffs.(k) * at (k - 1))
  done;
  let kw = Array.fold_left (fun acc c -> max acc (Check.bits_for c)) 1 coeffs in
  let rec log2_ceil n = if n <= 1 then 0 else 1 + log2_ceil ((n + 1) / 2) in
  let full_w = x_width + kw + log2_ceil (Array.length coeffs) in
  let out_w = Ip_module.int_param (Ip_module.defaults Catalog.fir) "output_width" in
  Check.top_bits ~signed:true ~full_w ~out_w !sum

let check_chunk st chunk =
  let golden_fir, ref_cordic =
    match st.golden with
    | Some g -> g
    | None ->
      let g = (sim_of st.fir, Reference.create ?clock:(Check.clock_of st.cordic) st.cordic.Ip_module.design) in
      st.golden <- Some g;
      g
  in
  let wrong = ref 0 in
  let taps = List.length fir_coefficients in
  for k = 0 to cycles_per_chunk - 1 do
    let bad = ref false in
    (* the unfaulted run of the remote box *)
    Simulator.set_input golden_fir "x" st.xs.(k);
    Simulator.cycle golden_fir;
    let y = st.out_y.(k) in
    let y = if !Check.corrupt && k = 0 then Bits.lognot y else y in
    if not (Bits.equal y (Simulator.get_port golden_fir "y")) then bad := true;
    let x = Option.get (Bits.to_signed_int st.xs.(k)) in
    st.history <- List.filteri (fun i _ -> i < taps) (x :: st.history);
    if Bits.to_int y <> Some (fir_expected st.history) then bad := true;
    (* the local box against the reference interpreter, on every
       [reference_every]th cycle: the CORDIC is combinational at its
       defaults, so each sample stands alone *)
    if k mod reference_every = chunk mod reference_every then begin
      Reference.set_input ref_cordic "angle" st.angles.(k);
      Reference.propagate ref_cordic;
      if
        not
          (Bits.equal st.out_cos.(k) (Reference.get_port ref_cordic "cos")
           && Bits.equal st.out_sin.(k) (Reference.get_port ref_cordic "sin"))
      then bad := true
    end;
    if !bad then incr wrong
  done;
  !wrong

(* ---- traced replay ---- *)

let make_shadow st =
  let endpoint = Endpoint.of_simulator ~name:"fir-shadow" (sim_of st.fir) in
  ignore (Endpoint.handle endpoint (Protocol.Hello "perfbench") : Protocol.message);
  { local_sim = sim_of st.cordic;
    remote_sim = sim_of st.fir;
    restore_sim = sim_of st.fir;
    endpoint;
    seq = 0;
    exchanges = 0;
    blob = "" }

(* one request/reply through the protocol layer, as the remote box's
   channel carries it *)
let exchange sp sh msg =
  sh.seq <- (sh.seq + 1) land Protocol.max_seq;
  let frame = Span.run sp "netproto.encode" (fun () -> Protocol.encode_packet ~seq:sh.seq msg) in
  let packet =
    Span.run sp "netproto.decode" (fun () -> Result.get_ok (Protocol.decode_packet frame))
  in
  let reply = Span.run sp "netproto.handle" (fun () -> Endpoint.handle_packet sh.endpoint packet) in
  let frame = Span.run sp "netproto.encode" (fun () -> Protocol.encode_packet ~seq:reply.Protocol.seq reply.Protocol.payload) in
  ignore
    (Span.run sp "netproto.decode" (fun () -> Protocol.decode_packet frame)
     : (Protocol.packet, string) result);
  sh.exchanges <- sh.exchanges + 1;
  if sh.exchanges mod Cosim.default_session_policy.Cosim.checkpoint_every = 0 then begin
    ignore
      (Span.run sp "netproto.checkpoint" (fun () -> Endpoint.handle sh.endpoint Protocol.Checkpoint)
       : Protocol.message);
    let blob = Span.run sp "sim.snapshot" (fun () -> Simulator.snapshot sh.remote_sim) in
    Span.note_bytes sp "sim.snapshot" (String.length blob);
    sh.blob <- blob
  end

let traced_chunk st sp =
  let sh = match st.shadow with Some s -> s | None -> let s = make_shadow st in st.shadow <- Some s; s in
  let failed = ref 0 in
  for k = 0 to cycles_per_chunk - 1 do
    Span.next_op sp;
    Span.run sp "op" (fun () ->
        let resumes = Cosim.total_resumes st.cosim in
        (try Span.run sp "cosim.system_cycle" (fun () -> system_cycle st k)
         with _ -> incr failed);
        Span.run sp "sim.cycle.local" (fun () ->
            Simulator.set_inputs sh.local_sim [ ("angle", st.angles.(k)) ];
            Simulator.cycle sh.local_sim);
        Span.run sp "sim.cycle.remote" (fun () ->
            Simulator.set_inputs sh.remote_sim [ ("x", st.xs.(k)) ];
            Simulator.cycle sh.remote_sim);
        exchange sp sh (Protocol.Set_inputs [ ("x", st.xs.(k)) ]);
        exchange sp sh (Protocol.Cycle 1);
        exchange sp sh (Protocol.Get_outputs [ "y" ]);
        (* a crash the session resumed from: restore its checkpoint *)
        if Cosim.total_resumes st.cosim > resumes && sh.blob <> "" then
          Span.run sp "sim.restore" (fun () -> Simulator.restore sh.restore_sim sh.blob))
  done;
  account st;
  !failed

let layer_metrics st sp =
  let us name = Span.mean sp name ~per:1e3 in
  let cycles = float_of_int (max 1 st.modelled_cycles) in
  [ ("sim.cycle_us.local", us "sim.cycle.local");
    ("sim.cycle_us.remote", us "sim.cycle.remote");
    ("sim.snapshot_us", us "sim.snapshot");
    ("sim.snapshot_bytes", Span.mean_bytes sp "sim.snapshot");
    ("sim.restore_us", us "sim.restore");
    ("netproto.encode_us", us "netproto.encode");
    ("netproto.decode_us", us "netproto.decode");
    ("netproto.handle_us", us "netproto.handle");
    ("netproto.checkpoint_us", us "netproto.checkpoint");
    ("netproto.exchanges", float_of_int (Bench.counter st.registry "fir.exchanges_total"));
    ("netproto.retries", float_of_int (Cosim.total_retries st.cosim));
    ("netproto.resumes", float_of_int (Cosim.total_resumes st.cosim));
    ("netproto.replayed_messages", float_of_int (Cosim.total_replayed_messages st.cosim));
    ("netproto.checkpoints", float_of_int (Cosim.total_checkpoints st.cosim));
    ("netproto.cycle_modelled_ms", st.modelled_s /. cycles *. 1e3);
    ("netproto.wire_bytes_per_cycle", float_of_int st.modelled_bytes /. cycles) ]

let spec ~seed =
  { Bench.ops_per_chunk = cycles_per_chunk;
    chunks = 100;
    warmup_chunks = 2;
    setup_reps = 15;
    setup = setup ~seed;
    next_chunk;
    run_chunk;
    check_chunk;
    trace_chunks = 20;
    traced_chunk;
    real_span = "cosim.system_cycle";
    nested_in =
      [ ("sim.cycle.remote", "netproto.handle");
        ("sim.snapshot", "netproto.checkpoint") ];
    layer_metrics }
