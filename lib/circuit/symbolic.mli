(** Symbolic circuit evaluation: one OBDD per net, over variables indexed
    by primary-input position.  This supplies the {e good functions} [f_i]
    that Difference Propagation consumes, and the line {e syndromes}
    (SAT fractions) of the paper's §4.1. *)

type t

val build :
  ?profile:bool ->
  ?heuristic:Ordering.heuristic ->
  ?order:int array ->
  Circuit.t ->
  t
(** Evaluate the whole circuit symbolically (default heuristic:
    {!Ordering.Natural}).  [?order] is an explicit level-to-input-position
    permutation that overrides the heuristic entirely — the engine's
    reorder-rescue stage builds under the order sifting discovered.
    [?profile] turns on {!Bdd.set_lifetime_profiling} from the first
    allocation, so build-phase nodes are stamped too. *)

val build_lazy :
  ?profile:bool ->
  ?heuristic:Ordering.heuristic ->
  ?order:int array ->
  Circuit.t ->
  t
(** Like {!build}, but constructs no good functions up front: each net's
    BDD is elaborated on first demand ({!force} / {!node_function}),
    building exactly the net's input cone.  A worker that only analyzes
    faults in one region of the circuit never pays for the rest. *)

val force : t -> int -> unit
(** Ensure a net's good function (and its whole input cone) is built.
    Idempotent; a no-op on eager instances. *)

val seal : t -> unit
(** Force every net's good function, then {!Bdd.seal} the manager: the
    complete set of good functions becomes an immutable snapshot that
    {!fork}s share read-only.  See {!Bdd.seal} for the sealing
    contract. *)

val fork : t -> t
(** A sibling instance over a {!Bdd.fork} of the (sealed) manager.  The
    good-function table is shared by reference — every handle in it is
    frozen, so forks read it without synchronisation and never write it.
    Use one fork per domain.  @raise Invalid_argument if the manager is
    not sealed or some net was never built. *)

val circuit : t -> Circuit.t
val manager : t -> Bdd.manager

val node_function : t -> int -> Bdd.t
(** Good function of a net; on lazy instances, builds it on demand. *)

val node_array : t -> Bdd.t array
(** The live good-function array, indexed by gate.  Registered with the
    manager as a {!Bdd.collect} root set, so entries survive collections
    and are remapped in place.  Entries of nets never {!force}d on a
    lazy instance are placeholders — consult {!node_function} instead
    unless the net is known built. *)

val built_count : t -> int
(** Number of nets whose good functions exist (laziness metric). *)

val output_functions : t -> Bdd.t array
(** Good functions of the primary outputs, in declaration order. *)

val syndrome : t -> int -> float
(** Fraction of input minterms setting the net to one (Savir's syndrome). *)

val total_nodes : t -> int
(** BDD nodes allocated while building — the ordering-ablation metric. *)

val eval_consistent : t -> bool array -> bool
(** Cross-check: symbolic and concrete evaluation agree on a vector. *)
