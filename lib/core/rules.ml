let gate_output m kind operands =
  match (kind : Gate.kind) with
  | Gate.Input -> invalid_arg "Rules: Input has no local function"
  | Gate.Const0 -> Bdd.zero m
  | Gate.Const1 -> Bdd.one m
  | Gate.Buf -> operands.(0)
  | Gate.Not -> Bdd.bnot m operands.(0)
  | Gate.And -> Array.fold_left (Bdd.band m) (Bdd.one m) operands
  | Gate.Nand -> Bdd.bnot m (Array.fold_left (Bdd.band m) (Bdd.one m) operands)
  | Gate.Or -> Array.fold_left (Bdd.bor m) (Bdd.zero m) operands
  | Gate.Nor -> Bdd.bnot m (Array.fold_left (Bdd.bor m) (Bdd.zero m) operands)
  | Gate.Xor -> Array.fold_left (Bdd.bxor m) (Bdd.zero m) operands
  | Gate.Xnor ->
    Bdd.bnot m (Array.fold_left (Bdd.bxor m) (Bdd.zero m) operands)

(* Two-input AND difference: dC = fA.dB xor fB.dA xor dA.dB.  The OR rule
   is its De Morgan dual (complemented good terms); folding it pairwise
   with the running good function handles any fanin count exactly.

   Two things keep the apply-step count down without changing a single
   result node.  The running good function is an operand only of the
   next pin's terms, so it is not formed after the last pin, where the
   fold would throw it away.  And the OR terms fA'.dB are one and-not
   pass ([Bdd.bandnot m dB fA]) instead of [band (bnot fA) dB]: the
   complement of every good fanin would otherwise be rebuilt in scratch
   on every fault, since epoch closes flush the cache that held it. *)
let fold_and m good delta =
  let n = Array.length good in
  let rec go i f_acc d_acc =
    if i >= n then d_acc
    else
      let f_in = good.(i) and d_in = delta.(i) in
      let d_acc' =
        if Bdd.is_zero m d_acc && Bdd.is_zero m d_in then Bdd.zero m
        else
          Bdd.bxor m
            (Bdd.bxor m (Bdd.band m f_acc d_in) (Bdd.band m f_in d_acc))
            (Bdd.band m d_acc d_in)
      in
      let f_acc = if i + 1 < n then Bdd.band m f_acc f_in else f_acc in
      go (i + 1) f_acc d_acc'
  in
  if n = 0 then Bdd.zero m else go 1 good.(0) delta.(0)

let fold_or m good delta =
  let n = Array.length good in
  let rec go i f_acc d_acc =
    if i >= n then d_acc
    else
      let f_in = good.(i) and d_in = delta.(i) in
      let d_acc' =
        if Bdd.is_zero m d_acc && Bdd.is_zero m d_in then Bdd.zero m
        else
          Bdd.bxor m
            (Bdd.bxor m (Bdd.bandnot m d_in f_acc) (Bdd.bandnot m d_acc f_in))
            (Bdd.band m d_acc d_in)
      in
      let f_acc = if i + 1 < n then Bdd.bor m f_acc f_in else f_acc in
      go (i + 1) f_acc d_acc'
  in
  if n = 0 then Bdd.zero m else go 1 good.(0) delta.(0)

let delta m kind ~good ~delta:d =
  match (kind : Gate.kind) with
  | Gate.Input -> invalid_arg "Rules.delta: Input has no fanins"
  | Gate.Const0 | Gate.Const1 -> Bdd.zero m
  | Gate.Buf | Gate.Not -> d.(0)
  | Gate.And | Gate.Nand -> fold_and m good d
  | Gate.Or | Gate.Nor -> fold_or m good d
  | Gate.Xor | Gate.Xnor -> Array.fold_left (Bdd.bxor m) (Bdd.zero m) d

let delta_direct m kind ~good ~delta:d =
  let faulty = Array.init (Array.length good) (fun i -> Bdd.bxor m good.(i) d.(i)) in
  Bdd.bxor m (gate_output m kind good) (gate_output m kind faulty)

let table_text =
  [
    "AND / NAND :  dC = fA.dB xor fB.dA xor dA.dB";
    "OR  / NOR  :  dC = fA'.dB xor fB'.dA xor dA.dB";
    "XOR / XNOR :  dC = dA xor dB";
    "BUF / NOT  :  dC = dA";
  ]
