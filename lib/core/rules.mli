(** The paper's Table 1: output difference functions of the primitive
    gates in terms of input {e good} functions and input {e difference}
    functions only.

    For a two-input gate with inputs A, B and output C, writing [fX] for
    the good function and [dX] for the difference [fX xor FX]:

    {v
    AND / NAND :  dC = fA.dB  xor  fB.dA  xor  dA.dB
    OR  / NOR  :  dC = fA'.dB xor  fB'.dA xor  dA.dB
    XOR / XNOR :  dC = dA xor dB
    BUF / NOT  :  dC = dA
    v}

    An output inversion never changes the difference, and the rules are
    exact for {e any} simultaneous input differences — which is what
    makes two-site bridging-fault initialisation sound.  Gates with more
    fanins are folded two at a time (the paper's n-1 two-input
    modelling, §3). *)

val gate_output : Bdd.manager -> Gate.kind -> Bdd.t array -> Bdd.t
(** Good output function of a gate from its input functions. *)

val delta :
  Bdd.manager ->
  Gate.kind ->
  good:Bdd.t array ->
  delta:Bdd.t array ->
  Bdd.t
(** Output difference by the Table-1 rules.  [good] and [delta] give the
    input good and difference functions pin by pin.  Inputs with zero
    difference cost nothing (selective trace).

    An n-input AND/OR is folded pin by pin with the running good
    function of the pins so far; that product is not formed after the
    last pin, which no term uses.  The OR terms fA'.dB are computed as
    {!Bdd.bandnot} [dB fA], so no complemented good function is built.
    Neither changes a result: the BDDs are canonical. *)

val delta_direct :
  Bdd.manager ->
  Gate.kind ->
  good:Bdd.t array ->
  delta:Bdd.t array ->
  Bdd.t
(** Reference implementation: rebuild the faulty input functions
    [FX = fX xor dX], evaluate the gate on them, and XOR with the good
    output.  Used to cross-validate {!delta} in the property tests. *)

val table_text : string list
(** The rows of Table 1, for reports. *)
