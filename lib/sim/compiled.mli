(** The compiled netlist form shared by the simulation kernels.

    {!compile} lowers a design once into the int-indexed structure that
    both {!Simulator} and {!Simulator.Batch} evaluate, so it exists in
    exactly one place:

    - the design-rule pre-check and the selected clock domain;
    - the shared {!Jhdl_circuit.Levelize} walk, stably sorted by level
      so every level occupies a contiguous rank range ([level_lo]);
    - dense net numbering: the nets of {!Jhdl_circuit.Design.all_nets}
      first, in that order (dense index [i] is position [i] of that
      duplicate-free list), then any primitive-port net no declared wire
      reaches;
    - combinational fan-out as a CSR pair ([row]/[col]) mapping a dense
      net to the ranks of its combinational consumers;
    - each top-level port's dense indices, and the design's checkpoint
      signature (computed at most once).

    A kernel adds only its own value store and per-primitive closures;
    the hot change-tracked write and dirty mark stay inside each
    kernel's compilation unit so they inline. *)

exception
  Combinational_cycle of string list
      (** instance paths forming the cycle; re-exported by both kernels *)

(** A primitive instance as a graph node (the shared levelization view). *)
type node = Jhdl_circuit.Levelize.source = {
  inst : Jhdl_circuit.Types.cell;
  prim : Jhdl_circuit.Prim.t;
  in_ports : (string * Jhdl_circuit.Types.net array) list;
  out_ports : (string * Jhdl_circuit.Types.net array) list;
}

(** A top-level input port, precompiled for forced writes. *)
type input = {
  in_idx : int array;  (** dense index per bit, [-1] when unmapped *)
  in_driven : string option;
      (** the error a forced write raises when some bit's net is driven
          (first driven bit) *)
}

type t = private {
  kernel : string;  (** ["Simulator"] or ["Simulator.Batch"], for messages *)
  design : Jhdl_circuit.Design.t;
  level_of : int array;  (** combinational level, per rank *)
  depth : int;  (** maximum level *)
  level_lo : int array;  (** first rank of each level *)
  net_idx : (int, int) Hashtbl.t;  (** net id -> dense index *)
  n_nets : int;
  design_nets : int;  (** length of [Design.all_nets] *)
  row : int array;  (** CSR offsets, length [n_nets + 1] *)
  col : int array;  (** consumer ranks *)
  clock_nets : (int, unit) Hashtbl.t option;  (** selected clock domain *)
  inputs : (string, input) Hashtbl.t;
  outputs : (string * int array) list;  (** declaration order *)
  signature : int Lazy.t;  (** {!Snapshot.signature} of [design] *)
}

(** [compile ~kernel ~clock design] — the compiled form, and the
    evaluation order (rank -> node) the kernel builds its closures from.
    The nodes are construction-time only: a kernel that kept them would
    hold every port list of the design for its lifetime.

    Raises [Invalid_argument] on a design-rule error or a clock wire
    that is not 1 bit wide (messages prefixed with [kernel ^ ".create"]),
    and {!Combinational_cycle} on a combinational loop, carrying the
    same cells as {!Jhdl_circuit.Design.validate}. *)
val compile :
  kernel:string ->
  clock:Jhdl_circuit.Wire.t option ->
  Jhdl_circuit.Design.t ->
  t * node array

(** [dense cx net] — the net's dense index, [-1] when unmapped. *)
val dense : t -> Jhdl_circuit.Types.net -> int

(** [ports cx node] — the node's input and output ports as dense
    indices. *)
val ports :
  t -> node -> (string * int array) list * (string * int array) list

(** [port cx ports name] — one port's dense indices; raises
    [Invalid_argument] when the port is absent. *)
val port : t -> (string * int array) list -> string -> int array

(** [pin cx ports name] — bit 0 of {!port}. *)
val pin : t -> (string * int array) list -> string -> int

(** [in_domain cx node] — whether the node's clock pin is in the
    selected clock domain (always, without a clock, and for nodes
    without a clock pin). *)
val in_domain : t -> node -> bool

(** [decode cx blob] — {!Snapshot.decode}, then check the blob against
    the design's signature and net count; raises {!Snapshot.Error}. *)
val decode : t -> string -> Snapshot.image
