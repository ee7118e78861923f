module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Types = Jhdl_circuit.Types
module Virtex = Jhdl_virtex.Virtex
module Bits = Jhdl_logic.Bits

type t = {
  cell : Cell.t;
  latency : int;
  full_width : int;
  table_count : int;
}

type adder_structure =
  [ `Chain
  | `Tree ]

(* Value of the constant times the digit addressed by [addr]; the top digit
   of a signed multiplicand is read as two's complement. *)
let table_value ~constant ~digit_width ~digit_is_signed addr =
  let v =
    if digit_is_signed && addr land (1 lsl (digit_width - 1)) <> 0 then
      addr - (1 lsl digit_width)
    else addr
  in
  constant * v

(* Minimal two's-complement width holding every entry of a table. *)
let table_width ~constant ~digit_width ~digit_is_signed =
  let worst = ref 1 in
  for addr = 0 to (1 lsl digit_width) - 1 do
    let pp = table_value ~constant ~digit_width ~digit_is_signed addr in
    worst := max !worst (Util.bits_for_constant pp)
  done;
  !worst

let expected_product ~signed_mode ~constant ~full_width ~product_width x =
  let xv = if signed_mode then Bits.to_signed_int x else Bits.to_int x in
  match xv with
  | None -> Bits.undefined product_width
  | Some xv ->
    let full = Bits.of_int ~width:full_width (constant * xv) in
    if product_width <= full_width then
      Bits.slice full ~lo:(full_width - product_width) ~hi:(full_width - 1)
    else if signed_mode then Bits.sign_extend full product_width
    else Bits.zero_extend full product_width

let create parent ?(name = "kcm") ?clk ?(adder_structure = `Chain)
    ~multiplicand ~product ~signed_mode ~pipelined_mode ~constant () =
  if (not signed_mode) && constant < 0 then
    invalid_arg "Kcm.create: negative constant requires signed mode";
  (match adder_structure, pipelined_mode with
   | `Tree, true ->
     invalid_arg "Kcm.create: pipelined mode is only supported with `Chain"
   | (`Tree | `Chain), _ -> ());
  let clk =
    match clk, pipelined_mode with
    | Some c, _ -> Some c
    | None, false -> None
    | None, true -> invalid_arg "Kcm.create: pipelined mode requires a clock"
  in
  let n = Wire.width multiplicand in
  let pw = Wire.width product in
  let kw = Util.bits_for_constant constant in
  let full_width = n + kw in
  let cell =
    Cell.composite parent ~name ~type_name:"VirtexKCMMultiplier"
      ~ports:
        ([ ("multiplicand", Types.Input, multiplicand);
           ("product", Types.Output, product) ]
         @ (match clk with Some c -> [ ("clk", Types.Input, c) ] | None -> []))
      ()
  in
  Cell.set_property cell "CONSTANT" (string_of_int constant);
  Cell.set_property cell "SIGNED" (string_of_bool signed_mode);
  Cell.set_property cell "PIPELINED" (string_of_bool pipelined_mode);
  let ranges = Util.digit_split ~width:n ~digit_bits:4 in
  let table_count = List.length ranges in
  (* one partial-product look-up table per digit *)
  let make_table index (lo, hi) ~delay_cycles =
    let digit_width = hi - lo + 1 in
    let digit_is_signed = signed_mode && hi = n - 1 in
    let tw = table_width ~constant ~digit_width ~digit_is_signed in
    let digit = Wire.slice multiplicand ~lo ~hi in
    let digit =
      match clk with
      | Some clk when delay_cycles > 0 ->
        Util.delay cell ~name:(Printf.sprintf "dig%d_dly" index) ~clk
          ~cycles:delay_cycles digit
      | Some _ | None -> digit
    in
    let pp = Wire.create cell ~name:(Printf.sprintf "pp%d" index) tw in
    let inputs = List.init digit_width (fun i -> Wire.bit digit i) in
    for j = 0 to tw - 1 do
      let f addr =
        (table_value ~constant ~digit_width ~digit_is_signed addr asr j) land 1
        = 1
      in
      let lut =
        Virtex.lut_of_function cell
          ~name:(Printf.sprintf "t%d_%d" index j)
          inputs (Wire.bit pp j) ~f
      in
      (* odd columns: the adder of stage [s] sits in column [2s] *)
      Cell.set_rloc lut ~row:(j / 2) ~col:((2 * index) + 1)
    done;
    (lo, pp)
  in
  (* sign-extend a partial product to [target] bits by replicating its MSB
     net: free in hardware, a concat view here *)
  let sign_extend_view pp target =
    let tw = Wire.width pp in
    assert (target >= tw);
    if target = tw then pp
    else
      Wire.concat
        (Util.fanout_bit (Wire.bit pp (tw - 1)) ~width:(target - tw))
        pp
  in
  (* accumulate the shifted partial products; low bits below each adder's
     range pass through unchanged *)
  let lo0, pp0 = make_table 0 (List.nth ranges 0) ~delay_cycles:0 in
  assert (lo0 = 0);
  let acc0 = sign_extend_view pp0 full_width in
  (* tree accumulation: all addends at full width, reduced pairwise *)
  let tree_final () =
    let gnd = lazy (Virtex.gnd cell) in
    let addend_at_full ~lo pp =
      let ext = sign_extend_view pp (full_width - lo) in
      if lo = 0 then ext
      else Wire.concat ext (Util.fanout_bit (Lazy.force gnd) ~width:lo)
    in
    let addends =
      acc0
      :: List.mapi
           (fun i (lo, hi) ->
              let index = i + 1 in
              let _, pp = make_table index (lo, hi) ~delay_cycles:0 in
              addend_at_full ~lo pp)
           (List.tl ranges)
    in
    let level = ref 0 in
    let rec reduce wires =
      match wires with
      | [] -> assert false
      | [ last ] -> last
      | many ->
        incr level;
        let rec pair acc idx = function
          | [] -> List.rev acc
          | [ odd ] -> List.rev (odd :: acc)
          | a :: b :: rest ->
            let sum =
              Wire.create cell
                ~name:(Printf.sprintf "t%d_%d_sum" !level idx)
                full_width
            in
            let _ =
              Adders.carry_chain cell
                ~name:(Printf.sprintf "tadd%d_%d" !level idx)
                ~a ~b ~sum ()
            in
            pair (sum :: acc) (idx + 1) rest
        in
        reduce (pair [] 0 many)
    in
    reduce addends
  in
  let chain_final () =
    List.fold_left
      (fun (acc, stage) (lo, hi) ->
         let index = stage in
         let delay_cycles = if pipelined_mode then stage - 1 else 0 in
         let _, pp = make_table index (lo, hi) ~delay_cycles in
         let addend = sign_extend_view pp (full_width - lo) in
         let high_sum =
           Wire.create cell
             ~name:(Printf.sprintf "acc%d" stage)
             (full_width - lo)
         in
         let adder =
           Adders.carry_chain cell
             ~name:(Printf.sprintf "add%d" stage)
             ~a:(Wire.slice acc ~lo ~hi:(full_width - 1))
             ~b:addend ~sum:high_sum ()
         in
         Cell.set_rloc adder ~row:0 ~col:(stage * 2);
         let combined = Wire.concat high_sum (Wire.slice acc ~lo:0 ~hi:(lo - 1)) in
         let staged =
           match clk with
           | Some clk when pipelined_mode ->
             let reg_out =
               Wire.create cell ~name:(Printf.sprintf "acc%d_r" stage) full_width
             in
             Util.register_vector cell
               ~name:(Printf.sprintf "acc%d_reg" stage)
               ~clk ~d:combined ~q:reg_out ();
             reg_out
           | Some _ | None -> combined
         in
         (staged, stage + 1))
      (acc0, 1)
      (List.tl ranges)
  in
  let final_acc, stages =
    match adder_structure with
    | `Chain -> chain_final ()
    | `Tree -> (tree_final (), 1)
  in
  let adder_stages = stages - 1 in
  (* deliver the requested slice of the full product *)
  let delivered =
    if pw <= full_width then
      Wire.slice final_acc ~lo:(full_width - pw) ~hi:(full_width - 1)
    else
      let msb = Wire.bit final_acc (full_width - 1) in
      let ext =
        if signed_mode then Util.fanout_bit msb ~width:(pw - full_width)
        else begin
          let gnd = Virtex.gnd cell in
          Util.fanout_bit gnd ~width:(pw - full_width)
        end
      in
      Wire.concat ext final_acc
  in
  let latency =
    if not pipelined_mode then 0
    else if adder_stages = 0 then 1
    else adder_stages
  in
  (match clk with
   | Some clk when pipelined_mode && adder_stages = 0 ->
     (* single-digit constant multiplier: register the output once *)
     let reg_out = Wire.create cell ~name:"out_r" pw in
     Util.register_vector cell ~name:"out_reg" ~clk ~d:delivered ~q:reg_out ();
     Util.buffer cell ~name:"prod" ~from:reg_out ~into:product ()
   | Some _ | None ->
     Util.buffer cell ~name:"prod" ~from:delivered ~into:product ());
  { cell; latency; full_width; table_count }
