(* Seeded parameter points for the catalog IPs. Each IP gets a ladder of
   rungs; a rung fixes the parameters its cost grows with (widths, tap
   count, pipelining) and the seed draws the others (constants, output
   widths, signedness, enables), so the make-up of a point list — and
   therefore its cost — is the same for every seed while the points
   themselves differ.

   Points that [Ip_module.validate] accepts but the generator's [build]
   rejects are never drawn: a negative KCM constant without [signed], a
   signed-only FIR coefficient set without [signed], and CORDIC
   [iterations] above [width]. Such a request raises out of
   [Server.user_request] and leaks its admission ticket. *)

open Jhdl

type point = {
  ip : Ip_module.t;
  fields : (string * string) list;  (** every parameter, as form text *)
}

let field p name = List.assoc name p.fields
let int_field p name = int_of_string (field p name)
let bool_field p name = bool_of_string (field p name)

let range rng lo hi = lo + Random.State.int rng (hi - lo + 1)
let b2s = string_of_bool
let i2s = string_of_int

let kcm rng ~rung:_ ~size =
  let signed = Random.State.bool rng in
  let constant = range rng (-32768) 32767 in
  let constant = if signed then constant else min 32767 (abs constant) in
  { ip = Catalog.kcm;
    fields =
      [ ("multiplicand_width", i2s size);
        ("product_width", i2s (range rng 2 32));
        ("signed", b2s signed);
        ("pipelined", b2s (Random.State.bool rng));
        ("constant", i2s constant) ] }

let fir rng ~rung ~size =
  let sets = Catalog.fir_coefficient_sets in
  let taps, coeffs = List.nth sets (rung mod List.length sets) in
  let signed = List.exists (fun c -> c < 0) coeffs || Random.State.bool rng in
  { ip = Catalog.fir;
    fields =
      [ ("input_width", i2s size);
        ("output_width", i2s (range rng 4 40));
        ("signed", b2s signed);
        ("taps", taps) ] }

let counter rng ~rung:_ ~size =
  { ip = Catalog.counter;
    fields =
      [ ("width", i2s size); ("has_enable", b2s (Random.State.bool rng)) ] }

let cordic rng ~rung ~size =
  { ip = Catalog.cordic;
    fields =
      [ ("width", i2s size);
        ("iterations", i2s (size - Random.State.int rng 2));
        ("pipelined", b2s (rung land 1 = 1)) ] }

let wallace rng ~rung:_ ~size =
  { ip = Catalog.wallace;
    fields =
      [ ("a_width", i2s size);
        ("b_width", i2s size);
        ("product_width", i2s (range rng 2 24)) ] }

let divider _rng ~rung ~size =
  { ip = Catalog.divider;
    fields =
      [ ("dividend_width", i2s size);
        ("divisor_width", i2s (2 + (rung mod 7)));
        ("pipelined", b2s (rung land 1 = 1)) ] }

(* the size ladders of the delivery workloads: ten distinct sizes per IP *)
let ladders =
  [ (kcm, List.init 10 (fun i -> 4 + i));
    (fir, List.init 10 (fun i -> 3 + i));
    (counter, List.init 10 (fun i -> 2 + i));
    (cordic, List.init 10 (fun i -> 6 + i));
    (wallace, List.init 10 (fun i -> 3 + i));
    (divider, List.init 10 (fun i -> 3 + i)) ]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [per_ip] points of every IP, at the first [per_ip] rungs of its
   ladder, in seeded order; distinct because each rung is *)
let delivery_points rng ~per_ip =
  List.concat_map
    (fun (gen, sizes) ->
       List.filteri (fun i _ -> i < per_ip) sizes
       |> List.mapi (fun rung size -> gen rng ~rung ~size))
    ladders
  |> Array.of_list |> shuffle rng

(* the server's content address of a point: the validated assignment,
   canonically printed *)
let descriptor p =
  Delivery_cache.generator_descriptor ~generator:p.ip.Ip_module.ip_name
    ~params:p.fields

let assignment p =
  match
    Ip_module.validate p.ip
      (List.map
         (fun (name, text) ->
            match
              Ip_module.parse_param (List.assoc name p.ip.Ip_module.params)
                text
            with
            | Ok v -> (name, v)
            | Error m -> failwith (name ^ ": " ^ m))
         p.fields)
  with
  | Ok a -> a
  | Error m -> failwith m
