(* Output checks the benchmark makes apart from the program: its own
   arithmetic, an EDIF re-parse, the download formula. With [corrupt]
   set, each check first damages one byte or sample of what it
   inspects, to show that the check can fail. *)

open Jhdl

let corrupt = ref false

(* damage the first instance keyword of an EDIF text *)
let corrupt_edif s =
  let key = "(instance " in
  let n = String.length key in
  let rec find i =
    if i + n > String.length s then 0
    else if String.sub s i n = key then i + 1
    else find (i + 1)
  in
  let b = Bytes.of_string s in
  let i = find 0 in
  Bytes.set b i (if Bytes.get b i = 'X' then 'Y' else 'X');
  Bytes.to_string b

(* the wire of a built design's clock port, if it has one *)
let clock_of (b : Ip_module.built) =
  Option.map
    (fun name -> (Option.get (Design.find_port b.Ip_module.design name)).Design.port_wire)
    b.Ip_module.clock_port

let mask w = (1 lsl w) - 1

(* the smallest two's-complement width holding [k] *)
let bits_for k =
  let rec go w =
    if k >= -(1 lsl (w - 1)) && k <= (1 lsl (w - 1)) - 1 then w else go (w + 1)
  in
  go 1

(* top [out_w] bits of a [full_w]-bit two's-complement value, or the
   value extended to [out_w] bits *)
let top_bits ~signed ~full_w ~out_w v =
  let full = v land mask full_w in
  if out_w <= full_w then (full lsr (full_w - out_w)) land mask out_w
  else if signed && full land (1 lsl (full_w - 1)) <> 0 then
    (full lor lnot (mask full_w)) land mask out_w
  else full

let signed_of ~w v = if v land (1 lsl (w - 1)) <> 0 then v - (1 lsl w) else v

(* EDIF re-parse: the served text names as many instances and nets as
   the design's netlist model *)
let edif_matches design edif =
  let edif = if !corrupt then corrupt_edif edif else edif in
  match Edif_reader.read edif with
  | Error _ -> false
  | Ok s ->
    let m = Model.of_design design in
    s.Edif_reader.instance_count = Model.instance_count m
    && s.Edif_reader.net_count = Model.net_count m

(* the documented download model, per jar: two round trips (four
   one-way latencies) plus compressed bytes over bandwidth *)
let download_seconds (link : Download.link) jars =
  List.fold_left
    (fun acc j ->
       acc
       +. (4. *. link.Download.latency_s)
       +. (float_of_int (Jar.compressed_size j) *. 8.
           /. link.Download.bandwidth_bits_per_s))
    0. jars

let close_enough a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

(* Simulate a built design against the benchmark's own arithmetic for
   the IPs whose function is plain arithmetic: KCM [c*x], Wallace
   [a*b], divider quotient and remainder, counter increments. Other IPs
   pass. [rng] draws the stimulus. *)
let arithmetic rng (p : Points.point) (built : Ip_module.built) =
  let design = built.Ip_module.design in
  let sim = Simulator.create ?clock:(clock_of built) design in
  let settle () =
    if built.Ip_module.latency = 0 then Simulator.propagate sim
    else Simulator.cycle ~n:built.Ip_module.latency sim
  in
  let read port = Bits.to_int (Simulator.get_port sim port) in
  let ok = ref true in
  let expect port v =
    let v = if !corrupt then v lxor 1 else v in
    if read port <> Some v then ok := false
  in
  let name = p.Points.ip.Ip_module.ip_name in
  let vectors = 12 in
  if name = Catalog.kcm.Ip_module.ip_name then begin
    let n = Points.int_field p "multiplicand_width" in
    let pw = Points.int_field p "product_width" in
    let signed = Points.bool_field p "signed" in
    let c = Points.int_field p "constant" in
    let full_w = n + bits_for c in
    for _ = 1 to vectors do
      let x = Random.State.int rng (1 lsl n) in
      Simulator.set_input sim "multiplicand" (Bits.of_int ~width:n x);
      settle ();
      let xv = if signed then signed_of ~w:n x else x in
      expect "product" (top_bits ~signed ~full_w ~out_w:pw (c * xv))
    done
  end
  else if name = Catalog.wallace.Ip_module.ip_name then begin
    let aw = Points.int_field p "a_width" and bw = Points.int_field p "b_width" in
    let pw = Points.int_field p "product_width" in
    for _ = 1 to vectors do
      let a = Random.State.int rng (1 lsl aw)
      and b = Random.State.int rng (1 lsl bw) in
      Simulator.set_inputs sim
        [ ("a", Bits.of_int ~width:aw a); ("b", Bits.of_int ~width:bw b) ];
      settle ();
      expect "product"
        (top_bits ~signed:false ~full_w:(aw + bw) ~out_w:pw (a * b))
    done
  end
  else if name = Catalog.divider.Ip_module.ip_name then begin
    let n = Points.int_field p "dividend_width"
    and m = Points.int_field p "divisor_width" in
    for _ = 1 to vectors do
      let x = Random.State.int rng (1 lsl n)
      and y = 1 + Random.State.int rng (mask m) in
      Simulator.set_inputs sim
        [ ("dividend", Bits.of_int ~width:n x);
          ("divisor", Bits.of_int ~width:m y) ];
      settle ();
      expect "quotient" (x / y);
      expect "remainder" (x mod y)
    done
  end
  else if name = Catalog.counter.Ip_module.ip_name then begin
    let w = Points.int_field p "width" in
    if Points.bool_field p "has_enable" then
      Simulator.set_input sim "ce" (Bits.of_int ~width:1 1);
    Simulator.propagate sim;
    let count = ref 0 in
    for _ = 1 to vectors do
      let k = 1 + Random.State.int rng 20 in
      Simulator.cycle ~n:k sim;
      count := !count + k;
      expect "q" (!count land mask w)
    done
  end;
  !ok
