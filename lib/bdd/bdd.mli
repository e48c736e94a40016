(** Reduced ordered binary decision diagrams (Bryant 1986).

    This is the functional substrate for Difference Propagation: every
    circuit node's good function, faulty function, and difference function
    is an OBDD handled by a {!manager}.

    Nodes are hash-consed inside a manager, so structural equality of the
    represented functions coincides with handle equality ({!equal}).  All
    handles are only meaningful with the manager that created them. *)

type manager
(** Mutable node arena: unique table, operation caches, variable order. *)

type t
(** Handle to a BDD node owned by some manager. *)

exception Variable_out_of_range of int
(** Raised when a variable index is not within [0 .. num_vars - 1]. *)

exception Budget_exceeded of { nodes : int; budget : int }
(** Raised by any BDD operation running inside {!with_budget} the moment
    it would allocate the ([budget]+1)-th fresh node.  [nodes] is the
    number of nodes the window had already allocated.  The raise happens
    {e before} the offending allocation, so the arena is left consistent
    and the manager (and every existing handle) remains fully usable. *)

exception Deadline_exceeded of { elapsed_ms : float; deadline_ms : float }
(** Raised by any BDD operation running inside {!with_deadline} once the
    window's wall-clock budget has passed.  Like {!Budget_exceeded}, the
    raise happens in the node-construction hot path before any
    allocation, so the arena stays consistent and fully usable. *)

exception Sealed_manager
(** Raised by any BDD operation on a {!seal}ed manager the moment it
    would have to allocate a fresh node.  Operations whose result
    already exists in the frozen snapshot (including every read-only
    query) succeed normally.  The raise happens before any allocation,
    so the manager stays consistent. *)

(** {1 Managers} *)

val create : ?order:int array -> int -> manager
(** [create n] makes a manager for variables [0 .. n-1].  [?order] is a
    permutation of [0 .. n-1] giving the variable at each level, topmost
    first; it defaults to the identity.  @raise Invalid_argument if [order]
    is not a permutation of the right size. *)

val num_vars : manager -> int
(** Number of variables the manager was created with. *)

val level_of_var : manager -> int -> int
(** Position of a variable in the order (0 = topmost). *)

val var_at_level : manager -> int -> int
(** Inverse of {!level_of_var}. *)

val allocated_nodes : manager -> int
(** Current arena size in nodes, terminals and frozen snapshot included
    (collections shrink it; contrast {!nodes_allocated}). *)

val clear_caches : manager -> unit
(** Drop all operation caches (unique table is kept, handles stay valid). *)

val with_budget : manager -> budget:int -> (unit -> 'a) -> 'a
(** [with_budget m ~budget f] runs [f] with a cap of [budget] fresh node
    allocations; exceeding it raises {!Budget_exceeded} mid-operation
    instead of letting the arena grow unboundedly.  The previous budget
    state is restored on exit (normal or exceptional); windows nest, and
    an inner window's allocations count against the enclosing one.
    Nodes found in the unique table or operation caches are free — the
    budget prices growth, not work.  @raise Invalid_argument on a
    negative budget. *)

val with_deadline : manager -> deadline_ms:float -> (unit -> 'a) -> 'a
(** [with_deadline m ~deadline_ms f] runs [f] under a wall-clock cap:
    once [deadline_ms] milliseconds have elapsed, the next node
    construction raises {!Deadline_exceeded} instead of letting a
    pathological apply chain wedge the caller.  The clock is polled
    every few hundred constructions, so overshoot is bounded by
    microseconds of BDD work (purely cache-hit computations between
    constructions are not interrupted).  Windows nest: an inner window
    can only tighten the enclosing one, and the raise reports whichever
    window actually expired.  The previous deadline state is restored on
    exit (normal or exceptional).  Unlike {!with_budget}, expiry is
    wall-clock-dependent and therefore not reproducible run to run.
    @raise Invalid_argument on a non-positive deadline. *)

(** {1 Garbage collection} *)

type registration
(** Token naming a client handle array registered with {!register}. *)

val register : manager -> t array -> registration
(** [register m handles] declares [handles] as a long-lived root set:
    every {!collect} treats each entry as live and rewrites it in place
    with the node's post-compaction handle.  The array is registered by
    identity — clients may keep mutating its entries between
    collections.  Returns a token for {!unregister}. *)

val unregister : manager -> registration -> unit
(** Forget a previously registered root array.  Its entries are no
    longer kept alive nor remapped by subsequent collections. *)

val collect : ?roots:t array list -> manager -> unit
(** Mark-sweep-compact the arena.  Everything reachable from the
    registered arrays and the extra [?roots] arrays survives; all other
    nodes are reclaimed and the survivors are compacted into a dense
    prefix.  All surviving handles are {e renumbered}: the registered
    and [roots] arrays are rewritten in place with the new handles, and
    any other outstanding handle is invalidated.  Operation caches are
    flushed; memoised statistics ({!sat_fraction}) of surviving nodes
    are preserved.  {!allocated_nodes} never increases across a
    collection.  Allocation-free, so safe inside a {!with_budget}
    window.  With a frozen snapshot in place ({!seal}), only scratch
    nodes are examined and remapped — frozen nodes are immortal and
    their handles never change.
    @raise Invalid_argument while an epoch is open ({!open_epoch}) —
    whole-arena restructuring and region reclamation do not compose;
    close the epoch first. *)

(** {1 Epochs}

    Region-scoped scratch reclamation for workloads with bimodal node
    lifetimes (per-fault apply scratch dies within the fault; good
    functions and memoised statistics live for the whole sweep).
    {!open_epoch} records the current allocation watermark;
    {!close_epoch} reclaims everything allocated since in one stroke,
    {e tenuring} the survivors — nodes still reachable from the
    registered root arrays or the [?survivors] arrays — by copying them
    down to the watermark.  Nodes below the watermark are never walked,
    moved or remapped, so a close costs O(nodes the epoch allocated)
    rather than {!collect}'s O(live arena).  Op caches are invalidated
    (O(1) generation bump); memoised SAT fractions of tenured nodes move
    with them. *)

type epoch
(** Token for one open epoch; single-use. *)

val open_epoch : manager -> epoch
(** Record the allocation watermark and open an epoch.  At most one
    epoch may be open per manager, and {!collect} / {!sift} /
    {!swap_levels} / {!seal} raise [Invalid_argument] while it is —
    loudly, rather than silently invalidating the region accounting.
    @raise Invalid_argument if an epoch is already open or the manager
    is sealed. *)

val close_epoch : ?survivors:t array list -> manager -> epoch -> unit
(** Reclaim every node allocated since the matching {!open_epoch}.
    Nodes reachable from the registered arrays or [?survivors] arrays
    are tenured: copied below the watermark, with those arrays rewritten
    in place to the tenured handles (exactly {!collect}'s root
    contract).  Every other handle issued during the epoch is
    invalidated.  Handles older than the epoch are untouched.
    @raise Invalid_argument if the epoch was already closed or belongs
    to a different manager. *)

val epoch_open : manager -> bool
(** Whether an epoch is currently open. *)

val epoch_nodes : manager -> int
(** Nodes allocated by the open epoch so far (0 when none is open) —
    the quantity to watch when deciding to close and reclaim. *)

val epoch_resets : manager -> int
(** Number of {!close_epoch} calls over the manager's life. *)

val tenured_nodes : manager -> int
(** Total survivors copied down by all {!close_epoch} calls. *)

(** {1 Frozen snapshots}

    The shared-read-only substrate for multicore sweeps.  After a
    single-threaded build phase, {!seal} migrates every live node into
    an immutable {e frozen} tier — node arrays, a dedicated unique
    table, and a fully precomputed SAT-fraction memo — and the manager
    refuses further allocation.  {!fork} then produces sibling managers
    that reference the frozen arrays and own a small private {e scratch}
    arena for apply intermediates.  Handles are absolute and stable
    across the seal, so frozen handles mean the same function in every
    fork.  No fork ever writes shared memory: a forked manager may be
    used freely from its own domain with no locks. *)

val seal : manager -> unit
(** Runs a {!collect} (registered arrays are remapped as usual), then
    freezes every surviving node: the live arena becomes the immutable
    snapshot shared by subsequent {!fork}s, the scratch tier is reset to
    empty, and the manager is marked sealed — any operation that would
    allocate raises {!Sealed_manager} until {!unseal}.  Surviving
    handles keep their values.  Idempotent-unfriendly: sealing an
    already-sealed manager raises [Invalid_argument].  Re-sealing after
    an {!unseal} extends the snapshot with whatever live scratch nodes
    accumulated in between; earlier forks remain valid because the old
    frozen arrays are replaced wholesale, never mutated.  The build
    phase's final apply/ite memo entries whose operands and results all
    survive are retained as a read-only {e warm cache} that every
    {!fork} shares by reference and probes after a private cache miss
    ({!warm_cache_hits} counts the saves).
    @raise Invalid_argument while an epoch is open. *)

val unseal : manager -> unit
(** Re-enable allocation on a sealed manager (the frozen tier stays in
    place and keeps being probed first).  Only safe once every domain
    holding a {!fork} of the snapshot has been joined. *)

val fork : manager -> manager
(** A sibling manager sharing the frozen snapshot by reference, with a
    fresh empty scratch arena, empty operation caches, fresh budget /
    deadline / registration / instrumentation state, and allocation
    enabled.  Frozen handles are valid and identical in both managers;
    scratch handles are private to the manager that made them.  The fork
    is cheap (a few small array allocations) and must only be used from
    one domain at a time.  @raise Invalid_argument if [m] is not
    sealed. *)

val is_sealed : manager -> bool

val warm_cache_hits : manager -> int
(** Apply/ite lookups answered by the read-only warm cache {!seal}
    captured from the build phase's memo tables (forks share it by
    reference and consult it after their private cache misses).  Always
    0 on a manager that never sealed. *)

val frozen_nodes : manager -> int
(** Size of the frozen snapshot (0 before the first {!seal}). *)

val scratch_nodes : manager -> int
(** Nodes currently live in the private scratch tier — the quantity a
    GC trigger should watch once a snapshot exists, since frozen nodes
    are immortal. *)

val scratch_peak : manager -> int
(** High-water mark of {!scratch_nodes} over the manager's life
    (sampled at every {!collect} and at the current instant). *)

(** {1 Work metrics}

    Deterministic, cachegrind-style counters for benchmarking: for a
    fixed operation sequence they are bit-identical run to run,
    independent of clock and machine. *)

val apply_steps : manager -> int
(** Node-construction attempts ([mk] entries after the trivial
    low-equals-high short circuit) — the work the operation caches
    could not absorb. *)

val nodes_allocated : manager -> int
(** Fresh nodes ever hash-consed into existence in this manager
    (monotone: collections do not subtract; forks start at 0). *)

(** {1 Lifetime profiling}

    Allocation/death instrumentation on the {e logical} clock of
    {!apply_steps}: every scratch allocation is stamped with the clock,
    and the reclamation that observes a node's death ({!collect} or
    {!close_epoch}) banks the elapsed clock distance into a log2
    histogram — the same lifetime oracle an offline Merlin-style trace
    analysis would compute, folded on the fly.  No wall time enters the
    data, so the histogram is bit-identical run to run for a fixed
    operation sequence. *)

type lifetime_profile = {
  lp_clock : int;  (** {!apply_steps} when the profile was read *)
  lp_deaths : int;  (** nodes whose death a reclamation has observed *)
  lp_live : int;  (** scratch nodes still alive at read time *)
  lp_frozen : int;  (** immortal frozen nodes (never profiled as deaths) *)
  lp_buckets : int array;
      (** bucket [b] counts lifetimes in [[2^(b-1), 2^b)] apply steps;
          bucket 0 is sub-step *)
}

val set_lifetime_profiling : manager -> bool -> unit
(** Enable (or disable) the profiler.  Enable before building: nodes
    already alive are stamped at the current clock, so their reported
    lifetimes measure from enablement.  Forks inherit the flag with a
    fresh, empty histogram.  Costs one array write per allocation when
    on; nothing when off. *)

val lifetime_profiling : manager -> bool

val lifetime_profile : manager -> lifetime_profile
(** Snapshot of the histogram (buckets are copied). *)

(** {1 Constants, variables and tests} *)

val zero : manager -> t
val one : manager -> t

val var : manager -> int -> t
(** Projection function of a variable. @raise Variable_out_of_range. *)

val nvar : manager -> int -> t
(** Complemented projection. @raise Variable_out_of_range. *)

val is_zero : manager -> t -> bool
val is_one : manager -> t -> bool
val is_const : manager -> t -> bool

val equal : t -> t -> bool
(** Function equality (valid for handles from the same manager). *)

val compare : t -> t -> int
val hash : t -> int

(** {1 Boolean connectives} *)

val bnot : manager -> t -> t
val band : manager -> t -> t -> t
val bor : manager -> t -> t -> t
val bxor : manager -> t -> t -> t

val bandnot : manager -> t -> t -> t
(** [bandnot m a b] is [a] and not [b], in one apply pass that never
    builds [not b].  Unlike {!band}, {!bor} and {!bxor} it is not
    commutative, so its op-cache key is not normalized: [bandnot m a b]
    and [bandnot m b a] are separate entries. *)

val bxnor : manager -> t -> t -> t
val bnand : manager -> t -> t -> t
val bnor : manager -> t -> t -> t
val bimp : manager -> t -> t -> t
val ite : manager -> t -> t -> t -> t

val band_list : manager -> t list -> t
val bor_list : manager -> t list -> t
val bxor_list : manager -> t list -> t

(** {1 Structure} *)

val top_var : manager -> t -> int option
(** Topmost variable of a non-constant BDD, [None] on constants. *)

val cofactors : manager -> t -> int -> t * t
(** [cofactors m f v] is [(f|v=0, f|v=1)] for any variable [v], whether or
    not it occurs at the top of [f]. *)

val restrict : manager -> t -> var:int -> value:bool -> t
(** Cofactor with respect to one variable. *)

val compose : manager -> t -> var:int -> t -> t
(** [compose m f ~var g] substitutes [g] for [var] inside [f]. *)

val exists : manager -> int list -> t -> t
(** Existential quantification over a set of variables. *)

val forall : manager -> int list -> t -> t
(** Universal quantification over a set of variables. *)

val support : manager -> t -> int list
(** Variables the function actually depends on, sorted increasingly.
    Allocation-free: the walk stamps manager-resident generation
    counters instead of building a visited table. *)

val size : manager -> t -> int
(** Number of internal (non-terminal) nodes reachable from the root.
    Allocation-free, like {!support}. *)

(** {1 Counting and satisfaction} *)

val sat_fraction : manager -> t -> float
(** Fraction of the 2^n input space mapped to true (the paper's
    {e syndrome} when applied to a circuit line's good function).
    Memoised permanently in the manager — repeated queries over shared
    subgraphs cost O(nodes not seen by any earlier query). *)

val sat_count : manager -> t -> float
(** [sat_fraction] scaled by 2^[num_vars] with [Float.ldexp], which
    never rounds, so the count is exact whenever the fraction is.  It is
    exactly [0.0] for the zero function at any [num_vars], and
    [infinity] only when the count itself exceeds [max_float], which
    takes at least 1024 variables. *)

val any_sat : manager -> t -> (int * bool) list option
(** Some satisfying partial assignment (variables absent are don't-care),
    or [None] for the zero function. *)

val sat_cubes : manager -> ?limit:int -> t -> (int * bool) list list
(** All satisfying cubes (paths to the one-terminal), up to [?limit]
    (default: no limit).  Unmentioned variables in a cube are don't-care. *)

val eval : manager -> t -> (int -> bool) -> bool
(** Evaluate under a total assignment. *)

(** {1 Construction helpers} *)

val of_fun : manager -> arity:int -> (bool array -> bool) -> t
(** Build the BDD of an arbitrary function of variables [0 .. arity-1] by
    Shannon expansion.  Exponential in [arity]; meant for tests and small
    specifications. *)

val cube : manager -> (int * bool) list -> t
(** Conjunction of literals. *)

(** {1 Dynamic variable reordering}

    Rudell-style sifting over the arena.  Reordering rewrites nodes in
    place so that every handle keeps denoting the same function — client
    handle arrays (registered or passed as [roots]) stay meaningful, and
    memoised SAT fractions remain valid because they depend only on the
    function.  Operation caches are flushed and the unique table is
    rebuilt before returning.  Only a plain single-tier arena can be
    reordered: both entry points raise [Invalid_argument] on a sealed
    manager or one holding a frozen snapshot ({!seal}), whose node
    arrays are shared read-only across forks. *)

val current_order : manager -> int array
(** The variable order now in effect: element [l] is the variable at
    level [l] (a fresh copy, suitable for [create ?order]). *)

val swap_levels : manager -> int -> unit
(** [swap_levels m i] exchanges the variables at levels [i] and [i+1].
    All handles keep their functions; dead nodes created by the
    restructuring linger as garbage until the next {!collect}.  The
    swap itself costs O(width of the two levels), the same routine
    {!sift} runs; around it, counting references and rebuilding the
    unique table cost O(arena) per call.
    @raise Invalid_argument if the manager is sealed, has a frozen
    tier, or [i+1] is not a valid level. *)

val sift :
  ?roots:t array list -> ?max_growth:float -> ?max_vars:int -> manager ->
  int * int
(** [sift m] runs sifting to a local minimum: each variable in turn
    (widest levels first) is moved through every position and settled
    where the live node count — measured against the registered arrays
    plus [?roots] — is smallest.  A walk direction is abandoned once the
    live size exceeds [max_growth] (default 1.2) times the size at that
    variable's start; [?max_vars] bounds how many variables are sifted
    (default: all with at least one node).  Collections run between
    variables, so handles in registered/[roots] arrays are remapped as
    in {!collect}; other outstanding handles are invalidated.  Returns
    [(live nodes before, live nodes after)].  Deterministic for a given
    arena content.  Cost: a reference count per live node lets each
    swap touch only the live nodes of its two levels, O(their width),
    and report the change in live size as it goes, so no swap re-walks
    the arena and nodes that die are never swapped again; one
    collection per sifted variable compacts the arena.  Fresh nodes
    are {e not} charged to an enclosing
    {!with_budget} window (sifting is maintenance, not apply work); an
    enclosing {!with_deadline} is honoured at swap boundaries, where
    the arena is consistent — on expiry the partial reorder is kept,
    the arena is collected from the roots (remapping their handles as
    on a normal return) and the manager remains fully usable.
    @raise Invalid_argument if sealed, frozen-tiered, or
    [max_growth < 1.0]. *)

(** {1 Cross-manager transfer} *)

val rebuild : src:manager -> dst:manager -> t -> t
(** Transfer a BDD into another manager (possibly with a different variable
    order), preserving the function.  Both managers must have the same
    variable universe. *)

(** {1 Diagnostics} *)

val check_invariants : manager -> t -> bool
(** True when every path is strictly level-increasing and no node has
    identical children (i.e. the diagram is reduced and ordered). *)

val check_arena : manager -> bool
(** True when the arena is canonical in every tier: each allocated node
    is what [mk]'s probe from its own triple's home slot finds, no two
    nodes share a (level, low, high) triple (within a tier or across
    the frozen/scratch split), and each unique table holds exactly its
    tier's nodes.  O(arena + tables); a test-time check, e.g. after
    {!collect}, {!close_epoch}, {!sift}, {!seal} or {!fork}.  Only
    meaningful while the apply layer is quiescent. *)

val pp : manager -> Format.formatter -> t -> unit
(** Debug rendering as nested if-then-else on variable indices. *)

val to_dot :
  manager -> ?var_name:(int -> string) -> ?title:string -> t -> string
(** Graphviz rendering: one rank per level, dashed low edges, solid high
    edges, box terminals.  [var_name] labels decision nodes (defaults to
    [x<i>]). *)
