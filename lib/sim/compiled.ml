open Jhdl_circuit.Types
module Prim = Jhdl_circuit.Prim
module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Design = Jhdl_circuit.Design
module Levelize = Jhdl_circuit.Levelize

exception Combinational_cycle of string list

type node = Levelize.source = {
  inst : cell;
  prim : Prim.t;
  in_ports : (string * net array) list;
  out_ports : (string * net array) list;
}

type input = {
  in_idx : int array;
  in_driven : string option;
}

type t = {
  kernel : string;
  design : Design.t;
  level_of : int array;
  depth : int;
  level_lo : int array;
  net_idx : (int, int) Hashtbl.t;
  n_nets : int;
  design_nets : int;
  row : int array;
  col : int array;
  clock_nets : (int, unit) Hashtbl.t option;
  inputs : (string, input) Hashtbl.t;
  outputs : (string * int array) list;
  signature : int Lazy.t;
}

let lookup net_idx n =
  match Hashtbl.find_opt net_idx n.net_id with Some idx -> idx | None -> -1

let dense cx n = lookup cx.net_idx n

let compile ~kernel ~clock design =
  (* Combinational loops are left out of the design-rule pre-check so
     levelization reports them through [Combinational_cycle], carrying
     the same cell list as [Design.validate]. *)
  (match
     List.filter
       (function Design.Combinational_loop _ -> false | _ -> true)
       (Design.errors design)
   with
   | [] -> ()
   | violation :: _ ->
     invalid_arg
       (Format.asprintf "%s.create: design-rule error: %a" kernel
          Design.pp_violation violation));
  let clock_nets =
    match clock with
    | None -> None
    | Some w ->
      if Wire.width w <> 1 then
        invalid_arg (kernel ^ ".create: clock wire must be 1 bit wide");
      let table = Hashtbl.create 4 in
      Array.iter (fun n -> Hashtbl.replace table n.net_id ()) (Wire.nets w);
      Some table
  in
  (* shared Kahn levelization, then a stable sort by level so each level
     occupies a contiguous rank range — what the level-bucketed worklists
     drain *)
  let kahn, kahn_levels, depth =
    try Levelize.levelize (Levelize.sources_of_root (Design.root design))
    with Levelize.Cycle cells ->
      raise (Combinational_cycle (List.map Cell.path cells))
  in
  let by_level = Array.init (Array.length kahn) Fun.id in
  Array.stable_sort
    (fun i j -> Int.compare kahn_levels.(i) kahn_levels.(j))
    by_level;
  let order = Array.map (fun i -> kahn.(i)) by_level in
  let level_of = Array.map (fun i -> kahn_levels.(i)) by_level in
  let n_ranks = Array.length order in
  (* dense net numbering: design nets first (creation order), then any
     node-port net not reachable from a declared wire *)
  let net_idx = Hashtbl.create 1024 in
  let index_net n =
    if not (Hashtbl.mem net_idx n.net_id) then
      Hashtbl.add net_idx n.net_id (Hashtbl.length net_idx)
  in
  List.iter index_net (Design.all_nets design);
  let design_nets = Hashtbl.length net_idx in
  let index_ports = List.iter (fun (_, nets) -> Array.iter index_net nets) in
  Array.iter (fun p -> index_ports p.in_ports; index_ports p.out_ports) order;
  let n_nets = Hashtbl.length net_idx in
  (* consumer fan-out as CSR: count, prefix-sum, fill *)
  let row = Array.make (n_nets + 1) 0 in
  let iter_comb_nets p f =
    List.iter
      (fun port ->
         match List.assoc_opt port p.in_ports with
         | None -> ()
         | Some nets ->
           Array.iter (fun n -> f (Hashtbl.find net_idx n.net_id)) nets)
      (Levelize.comb_inputs p)
  in
  Array.iter
    (fun p -> iter_comb_nets p (fun idx -> row.(idx + 1) <- row.(idx + 1) + 1))
    order;
  for i = 1 to n_nets do
    row.(i) <- row.(i) + row.(i - 1)
  done;
  let col = Array.make row.(n_nets) 0 in
  let cursor = Array.sub row 0 n_nets in
  Array.iteri
    (fun rank p ->
       iter_comb_nets p (fun idx ->
         col.(cursor.(idx)) <- rank;
         cursor.(idx) <- cursor.(idx) + 1))
    order;
  let level_lo = Array.make (depth + 1) n_ranks in
  for r = n_ranks - 1 downto 0 do
    level_lo.(level_of.(r)) <- r
  done;
  let inputs = Hashtbl.create 16 in
  List.iter
    (fun port ->
       let w = port.Design.port_wire in
       let driven = ref None in
       Array.iteri
         (fun i n ->
            match n.driver with
            | Some term when !driven = None ->
              driven :=
                Some
                  (Printf.sprintf "%s.set_input: net %s[%d] is driven by %s"
                     kernel (Wire.name w) i (Cell.path term.term_cell))
            | _ -> ())
         (Wire.nets w);
       Hashtbl.replace inputs port.Design.port_name
         { in_idx = Array.map (lookup net_idx) (Wire.nets w);
           in_driven = !driven })
    (Design.inputs design);
  let outputs =
    List.map
      (fun port ->
         ( port.Design.port_name,
           Array.map (lookup net_idx) (Wire.nets port.Design.port_wire) ))
      (Design.outputs design)
  in
  ( { kernel; design; level_of; depth; level_lo; net_idx; n_nets;
      design_nets; row; col; clock_nets; inputs; outputs;
      signature = lazy (Snapshot.signature design) },
    order )

let ports cx p =
  let dense_ports =
    List.map (fun (name, nets) ->
      (name, Array.map (fun n -> Hashtbl.find cx.net_idx n.net_id) nets))
  in
  (dense_ports p.in_ports, dense_ports p.out_ports)

let port cx ports name =
  match List.assoc_opt name ports with
  | Some arr -> arr
  | None -> invalid_arg (Printf.sprintf "%s: no port %s" cx.kernel name)

let pin cx ports name = (port cx ports name).(0)

let in_domain cx p =
  match cx.clock_nets with
  | None -> true
  | Some table ->
    (match Prim.clock_port p.prim with
     | None -> true (* black boxes follow the global cycle *)
     | Some port ->
       (match List.assoc_opt port p.in_ports with
        | None -> false
        | Some nets -> Array.exists (fun n -> Hashtbl.mem table n.net_id) nets))

let decode cx blob =
  let img = Snapshot.decode blob in
  let expect = Lazy.force cx.signature in
  if img.Snapshot.image_signature <> expect then
    raise
      (Snapshot.Error
         (Printf.sprintf
            "snapshot: design signature mismatch (blob %08x, design %s is %08x)"
            img.Snapshot.image_signature (Design.name cx.design) expect));
  if Bytes.length img.Snapshot.image_nets <> cx.design_nets then
    raise (Snapshot.Error "snapshot: net count mismatch");
  img
