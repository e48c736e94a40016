(** Difference Propagation (the paper's §3).

    An engine holds the symbolic good functions of one circuit.  For any
    logical fault it initialises difference functions at the fault
    site(s) and propagates them to the primary outputs with the Table-1
    rules, visiting only the fault's fanout cone (selective trace).  The
    union of the output differences is {e the complete test set} of the
    fault, from which exact detectability, syndrome bounds, adherence
    and observability statistics follow. *)

type t

val create :
  ?heuristic:Ordering.heuristic ->
  ?mem_profile:bool ->
  Circuit.t ->
  t
(** [heuristic] defaults to the topology oracle's verdict: when
    {!Ordering.oracle} is confident a structural order beats the
    paper's declaration order, the engine builds under
    {!Ordering.Oracle}, otherwise under {!Ordering.Natural}.  Pass an
    explicit heuristic to bypass the oracle.  Every net's good function
    is built up front.

    [mem_profile] (default false) turns on {!Bdd.set_lifetime_profiling}
    for the engine's manager — and for every fork its snapshot sweeps
    make — so a sweep can be followed by
    [Bdd.lifetime_profile (Engine.manager t)] to read the allocation
    lifetime histogram on a logical clock of apply steps.  A sweep never
    replaces the engine's manager, so that clock covers every fault the
    engine analysed; the pristine builds the degradation ladder's
    retries and rescues run on are not profiled. *)

val circuit : t -> Circuit.t
val manager : t -> Bdd.manager
val symbolic : t -> Symbolic.t

val generation : t -> int
(** Number of handle-invalidating events ({!collect} cycles, scratch
    epoch closes and {!seal}s) so far.  BDD handles obtained from
    {!manager}/{!symbolic} are only valid while the generation is
    unchanged; {!result} values are plain data and survive them all. *)

val on_rebuild : t -> (unit -> unit) -> unit
(** Register a hook run after every handle-invalidating event — the
    collections and epoch closes a {!sweep} makes included — the place
    to invalidate external caches holding BDD handles from this
    engine. *)

val collect : t -> unit
(** Mark-sweep the engine's BDD arena: the good functions (with their
    memoised statistics) and any in-flight scratch survive, the dead
    intermediates of earlier faults are reclaimed, and the arena is
    compacted in place — what a sweep does when the arena outgrows its
    node budget.  Handles are renumbered, so this bumps {!generation}
    and fires {!on_rebuild} hooks.  With a frozen snapshot in place
    ({!seal}), only the private scratch tier is collected. *)

(** {1 Shared snapshots}

    The substrate of the {!Snapshot} sweep, exposed for direct use:
    build the good functions once, freeze them, and hand each worker
    domain a cheap fork that reads the snapshot without locks. *)

val seal : t -> unit
(** {!Bdd.seal} the arena: the complete good-function set becomes an
    immutable snapshot shared by subsequent {!fork}s, and operations
    that would allocate fresh nodes raise {!Bdd.Sealed_manager} until
    {!unseal}.  Runs a collection, so it bumps {!generation} and fires
    {!on_rebuild} hooks.  @raise Invalid_argument if already sealed. *)

val unseal : t -> unit
(** Re-enable allocation after a {!seal} (the snapshot stays in place
    and keeps being shared).  Only safe once every domain holding a
    {!fork} has been joined. *)

val sealed : t -> bool

val fork : t -> t
(** A worker engine over the sealed snapshot: shares the circuit,
    fanouts and the frozen good functions by reference; owns a private
    scratch arena, cone walker and delta scratch.  Safe to use from one
    other domain while the parent stays sealed — forks never write
    shared state except the reorder rescue's variable order, which an
    engine and its forks compute once between them, under a lock.
    @raise Invalid_argument unless {!sealed}. *)

(** {1 Test sets} *)

val po_differences : t -> Fault.t -> Bdd.t array
(** The difference function at every primary output (declaration
    order) — each is the fault's complete test set {e at that output}. *)

val test_set : t -> Fault.t -> Bdd.t
(** Union of the output differences: the complete test set. *)

val test_cubes : ?limit:int -> t -> Fault.t -> (int * bool) list list
(** Satisfying cubes of the test set, as (input position, value) literal
    lists; unmentioned inputs are don't-care. *)

val test_vector : t -> Fault.t -> bool array option
(** One full test vector, or [None] for an undetectable fault. *)

val redundant : t -> Fault.t -> bool
(** Whether the complete test set is empty — the fault is untestable
    and the line it sits on is redundant logic.  This is the exact
    cross-check behind every "definitely redundant" verdict of the
    static lint pass: structure proposes, Difference Propagation
    confirms. *)

(** {1 Exact fault statistics} *)

type result = {
  fault : Fault.t;
  detectability : float;  (** |test set| / 2^n — exact *)
  test_count : float;  (** |test set| *)
  detectable : bool;
  pos_fed : int;  (** outputs reachable from the fault site(s) *)
  pos_observed : int;  (** outputs with a non-zero difference *)
  upper_bound : float;
      (** excitation bound: the site syndrome (or its complement) for
          stuck-at faults, [satfrac (fa xor fb)] for bridges *)
  adherence : float option;
      (** detectability / upper_bound; [None] when the bound is zero *)
  wired_support : int option;
      (** bridges: support size of the wired function at the site — zero
          means the bridge degenerates to (double) stuck-at behaviour *)
  test_set_nodes : int;
      (** BDD size of the test set under the variable order it was
          built in — the one field that depends on the order, so a
          rescued fault's value differs from the base order's *)
  rescued_by_reorder : bool;
      (** the analysis only completed on the reorder-rescue rung of the
          degradation ladder: the heuristic-order attempts (the first
          try and the top-budget retry) failed, and the fault was
          re-analysed exactly under a sifted variable order.  Every
          statistic except [test_set_nodes] counts or measures the
          Boolean function itself, so it equals the base order's answer
          exactly; [test_set_nodes] is the sifted order's BDD size. *)
}

val analyze : t -> Fault.t -> result
(** Exact analysis of one fault.  May raise — {!analyze_protected} is
    the isolated variant. *)

(** {1 Fault-tolerant sweeps}

    A sweep over thousands of faults must survive the one fault whose
    difference BDD explodes (or whose description is malformed): one bad
    fault may not abort the run and discard every finished result.
    Every fault therefore comes back as a structured {!outcome}, and the
    degradation ladder is {e exact -> retry -> reorder -> bounded}: a
    fault that exhausts its budget/deadline and its top-budget retry is
    attempted once more under a sifted variable order (the explosion is
    often an artefact of the build heuristic's order, not of the fault),
    and only when that rescue also fails does it degrade to sound
    detectability bounds instead of a bare failure marker. *)

type degrade_reason =
  | Over_budget of { nodes : int; budget : int }
      (** the per-fault BDD allocation budget blew mid-apply, after
          [nodes] fresh nodes against a cap of [budget] (the cap of the
          final heuristic-order attempt: the top-budget retry's, or the
          first try's when [max_retries = 0]) *)
  | Over_deadline of { deadline_ms : float }
      (** the per-fault wall-clock deadline (of the final
          heuristic-order attempt) expired mid-apply; no elapsed time is
          recorded so the payload stays reproducible *)

type outcome =
  | Exact of result  (** the analysis completed; statistics are exact *)
  | Bounded of {
      fault : Fault.t;
      lower : float;  (** Wilson lower confidence bound (z = 5) *)
      upper : float;  (** Wilson upper confidence bound (z = 5) *)
      syndrome_bound : float;
          (** the paper's excitation upper bound, computed exactly on
              the cached good functions (1.0 when even that blew a
              probe budget) *)
      samples : int;  (** random vectors simulated for the interval *)
      reason : degrade_reason;
    }
      (** exact analysis degraded, but the fault still has a numeric
          answer: the true detectability lies in
          [lower, min upper syndrome_bound] (up to the ~6e-7 Wilson
          miss probability; [syndrome_bound] is unconditionally sound) *)
  | Budget_exceeded of { fault : Fault.t; nodes : int; budget : int }
      (** budget blown and bounded estimation disabled or impossible *)
  | Deadline_exceeded of {
      fault : Fault.t;
      elapsed_ms : float;
      deadline_ms : float;
    }
      (** deadline expired and bounded estimation disabled or
          impossible *)
  | Crashed of { fault : Fault.t; message : string }
      (** the analysis raised; [message] is the printed exception *)

val outcome_fault : outcome -> Fault.t

val is_exact : outcome -> bool

val exact_results : outcome list -> result list
(** The [Exact] payloads, input order kept; degraded outcomes dropped. *)

val degraded : outcome list -> outcome list
(** The non-[Exact] outcomes, input order kept. *)

val outcome_bounds : outcome -> (float * float) option
(** Detectability interval an outcome certifies: exact point for
    [Exact], [lower, min upper syndrome_bound] for [Bounded], [None]
    when the outcome carries no numeric answer. *)

val outcome_to_string : Circuit.t -> outcome -> string
(** One-line description for logs and summaries.  Never raises, even on
    faults naming nonexistent nets. *)

val degrade_reason_to_string : degrade_reason -> string
(** One-line description of why an exact analysis was abandoned. *)

val wilson_interval : z:float -> int -> int -> float * float
(** [wilson_interval ~z hits samples] is the Wilson score confidence
    interval for a binomial proportion, clamped to [0, 1]; the endpoints
    are pinned to exactly 0 / 1 when the sample is one-sided.
    [(0, 1)] when [samples = 0].
    @raise Invalid_argument unless [0 <= hits <= samples]. *)

val analyze_protected :
  ?fault_budget:int -> ?deadline_ms:float -> t -> Fault.t -> outcome
(** {!analyze} with per-fault isolation: an exception becomes [Crashed]
    and, when [fault_budget] / [deadline_ms] are given, the analysis
    runs inside {!Bdd.with_budget} / {!Bdd.with_deadline} so a blown
    budget or expired deadline is caught {e mid-apply} as
    [Budget_exceeded] / [Deadline_exceeded] instead of growing the
    arena unboundedly or wedging the caller.  The engine survives either
    way (scratch state is restored, the arena stays consistent).  No
    retries and no bounded fallback — this is one bare attempt. *)

val reorder_growth : float
(** 1.2: the {!Bdd.sift} growth cap under which the reorder rescue (see
    {!sweep}) discovers its variable order.  A constant, so the sifted
    order is a function of the circuit and heuristic alone. *)

(** {1 Checkpoint journaling}

    {!sweep} accepts a journal interface so long sweeps survive
    kills: every completed outcome is reported through [record] the
    moment it exists (from whichever domain computed it — implementations
    must synchronize), and faults whose index [skip] answers are never
    re-analysed, their outcomes merging back verbatim.  See the
    [Journal] module for the JSON-lines file implementation. *)

type journal = {
  skip : int -> outcome option;
      (** [skip i] = the journaled outcome of fault [i], or [None] to
          analyse it *)
  record : int -> outcome -> unit;
      (** called exactly once per computed fault, in completion order;
          may be called from worker domains concurrently *)
}

(** {1 Sweep scheduling} *)

type scheduler =
  | Static  (** the sequential loop on the calling engine *)
  | Snapshot  (** the shared-snapshot sweep over forked workers *)
(** Which of {!sweep}'s two sweeps ran.  No setting picks it: the
    domain count does. *)

val scheduler_to_string : scheduler -> string

type sweep_stats = {
  scheduler : scheduler;
      (** the sweep that ran: {!Snapshot} when [domains > 1],
          {!Static} otherwise *)
  domains : int;  (** domains requested for the sweep *)
  hardware_domains : int;
      (** {!Parallel.available_domains} at run time — the hardware
          actually available, without which throughput numbers across
          machines are uninterpretable *)
  batch_count : int;  (** work units the sweep ran (1 for {!Static}) *)
  largest_batch : int;
      (** faults in the biggest of them — the most work one domain
          can be left holding while the others run dry *)
  build_seconds : float;
      (** per-worker engine/fork construction (summed over domains) *)
  snapshot_seconds : float;
      (** {!Snapshot} only: sealing the shared good functions,
          single-threaded, before workers start *)
  analysis_wall_seconds : float;
      (** wall clock of the parallel region, as one observer saw it —
          what throughput is computed from *)
  analysis_cpu_seconds : float;
      (** fault analysis proper, GC time excluded, {e summed over
          domains} — compare against [analysis_wall_seconds] to see
          parallel efficiency; a sum far above wall x domains means
          duplicated work.  Each domain's share is its busy wall-clock
          window, so when domains exceed hardware cores the sum also
          counts time spent descheduled. *)
  gc_seconds : float;  (** {!collect} cycles (summed over domains) *)
  gc_collections : int;
  good_functions_built : int;
      (** good functions elaborated — the circuit's gate count,
          whatever the domain count *)
  scratch_peak_nodes : int;
      (** maximum private-arena occupancy any worker reached (under
          {!Snapshot}, scratch excludes the immortal frozen tier) *)
  apply_steps : int;
      (** node-construction attempts across all managers involved — a
          deterministic, machine-independent work metric
          ({!Bdd.apply_steps}).  Like every arena counter here, it
          includes the pristine builds the ladder's retries and rescues
          ran on, their construction as well as the attempts. *)
  nodes_allocated : int;
      (** fresh BDD nodes hash-consed across all managers involved
          ({!Bdd.nodes_allocated}) *)
  rescued_faults : int;
      (** faults answered exactly on the reorder-rescue rung — every
          one of these would have degraded to {!Bounded} (or worse)
          without dynamic reordering *)
  retry_attempts : int;
      (** top-budget retries entered across the sweep (at most one per
          failed fault; none when [max_retries = 0]) *)
  sift_seconds : float;
      (** wall clock spent discovering the rescue order (side build
          plus sifting, done once by whichever worker first needed it;
          0 when the engine kept the order from an earlier sweep) — the
          price of the rescue rung, kept out of
          [analysis_cpu_seconds] *)
  sift_nodes_before : int;
      (** live BDD nodes of the good-function arena before sifting (0
          when no rescue order was ever needed); per-manager fact, so
          the maximum across workers, not a sum *)
  sift_nodes_after : int;
      (** live BDD nodes after sifting — compare against
          [sift_nodes_before] for the order improvement *)
  epoch_resets : int;
      (** scratch regions reclaimed wholesale ({!Bdd.close_epoch})
          across all managers involved — each one replaced a
          mark-sweep-compact walk of the whole arena *)
  tenured_nodes : int;
      (** nodes copied into the long-lived tier at epoch close because
          a registered root still reached them (in-flight scratch) —
          persistently high tenure means the region budget closes
          epochs too early *)
  warm_cache_hits : int;
      (** apply/ite recursions answered by the sealed snapshot's warm
          op-cache ({!Bdd.warm_cache_hits}, {!Snapshot} only) —
          work the fork-local cold caches would have redone *)
}

val sweep :
  ?config:Sweep_config.t ->
  ?journal:journal ->
  ?on_outcome:(int -> outcome -> unit) ->
  t ->
  Fault.t list ->
  outcome list * sweep_stats
(** Analyse a fault list under [config] (default
    {!Sweep_config.default}), returning one outcome per fault in input
    order — the sweep completes whatever individual faults do — and the
    sweep's accounting: where the time went (snapshot build, per-worker
    build, analysis CPU summed across domains, the parallel region's
    wall clock, GC), how many batches the sweep served, how much of
    the circuit the workers elaborated, and the deterministic work
    metrics the bench regression gate compares across runs.
    @raise Invalid_argument when {!Sweep_config.validate} rejects
    [config].

    [fault_budget] caps the fresh allocations of each single fault's
    analysis, and [deadline_ms] caps its wall-clock time — the
    cooperative in-apply deadline that keeps one pathological cone from
    wedging a worker.

    A failed fault is retried once, when [max_retries > 0], with the
    per-fault budget and deadline scaled by [2^max_retries], on a
    pristine base-order build of the good functions — a fault that only
    blew a tight cap recovers to [Exact]; a deterministic crash stays
    [Crashed].  Each worker makes that build on its first retry, keeps
    it for the rest of the sweep and drops it when the sweep returns;
    every attempt runs inside a scratch epoch opened on the untouched
    build, and closing it gives the build's node set back exactly.
    Fresh allocations depend on that node set alone, so every retry is
    classified as it would be on a build of its own.  One rung is
    enough: a retry on a pristine build allocates the same nodes
    whatever its cap, so a smaller cap could only fail where the top
    one succeeds.

    When the retry also fails and [reorder] is set, the fault gets one
    {e reorder rescue}: it is attempted once more at the same top
    budget, in the same way, on a pristine build under the variable
    order Rudell sifting discovers (computed once per engine and its
    forks, on a side manager, under the {!Bdd.sift} growth cap
    {!reorder_growth}).  Success comes back [Exact] with
    [rescued_by_reorder] set: every statistic but [test_set_nodes]
    equals the base order's exactly, so the answer is as trustworthy
    as a first-attempt result ([test_set_nodes] is the BDD size under
    the sifted order).  Retries and rescues never touch the worker's
    own arena, so sweep results stay independent of which faults
    needed the ladder, and the sift order itself is deterministic —
    the ladder preserves the bit-identity and kill-and-resume
    guarantees below.  The rescue rung is skipped entirely (costing
    nothing) when neither [fault_budget] nor [deadline_ms] is set,
    since nothing can degrade then.

    When the whole ladder is exhausted and [bounds] is set, the fault
    degrades to {!Bounded} instead: the paper's syndrome upper bound is
    computed on the cached good functions (under a probe budget — 1.0
    if even that blows) and a Wilson interval is estimated from
    [bound_samples] random simulation vectors with a per-fault
    deterministic seed, so every fault of every sweep gets a numeric
    answer.  With [bounds] off a sweep keeps the bare
    [Budget_exceeded]/[Deadline_exceeded] markers.

    Scratch is reclaimed in {e epochs} ({!Bdd.open_epoch}): one opens
    once a fault's good functions are in place and closes — reclaiming
    the region's unreachable scratch wholesale — before any seal and at
    sweep end, and otherwise by the one rule the [fault_budget] sets.
    Without a budget a region closes when it passes a fixed 256k nodes,
    so faults share its nodes and op-cache entries; exact statistics
    are scalars of canonical ROBDDs, the same on any arena.  With a
    budget, whether a borderline fault blows it would depend on arena
    history, so every fault starts on the canonical arena — the good
    functions and nothing else, compacted in gate order: a worker
    {!collect}s once, on its first fault, and closes the previous
    fault's epoch before every later one, which restores that arena
    exactly.  Budgeted outcomes, the rung that answered included, are
    then bit-identical across the two sweeps, domain counts and {!journal}
    resume points (the property checkpoint/resume relies on).  Deadline
    expiry remains wall-clock-dependent.

    [journal] (default: none) is the checkpoint hook: journaled faults
    are skipped and merged verbatim, fresh completions are reported as
    they happen (see {!journal}).

    [on_outcome] (default: none) is the streaming subscription hook:
    called once per {e computed} fault the moment its outcome exists —
    possibly from a worker domain, so implementations must synchronize —
    after the journal's [record] has seen it (durable before visible).
    Journal-skipped faults are never re-announced through it; a resuming
    caller already holds those.  This is how [dpa serve] streams
    per-fault results to subscribers while the sweep runs.

    [domains] picks one of two sweeps, which answer identically.  One
    domain runs {!Static}, the sequential loop on the calling engine, so
    an exception raised by the journal's [record] or by [on_outcome]
    reaches the caller as raised.  It visits the faults in
    {e cone-local} order — a stable sort by (lowest net of
    {!Fault.sites}, then the fault) — so that faults whose fanout cones
    overlap run back to back in one epoch region and share its nodes
    and op-cache entries; the work counters are the same whatever order
    the faults came in.  Outcomes and their indices keep input order,
    but [record] and [on_outcome] see the faults in visit order, so a
    one-domain journal is written in that order.  More domains run
    {!Snapshot}: the good functions are built once on the calling
    engine and {!seal}ed, and every domain works on a {!fork} over the
    shared snapshot (the engine is sealed for the duration of the sweep
    and unsealed — usable as before — on return).  Faults are grouped
    into cone-owned batches that idle domains steal from a shared
    queue, each batch run in the same cone-local order.  No batch holds
    much more than 1/(4 x domains) of the faults, so a domain that runs
    dry steals more work instead of waiting on one heavy batch (a sweep
    too cheap to be worth rebalancing keeps one batch per domain).  No
    batch runs twice, and the failure rule is the loop's: a failure
    inside one fault's analysis is that fault's outcome, and an
    exception from outside it — the journal's [record], [on_outcome] —
    stops the batch it was raised in, the other batches run to the end,
    and once every domain has joined the first such exception in batch
    order reaches the caller.  A domain stuck in one fault holds up the
    join, which is why [deadline_ms] is enforced inside the analysis.
    Outcomes merge back in input order; every [Exact] outcome is
    bit-identical to a sequential run — ROBDDs are canonical under a
    fixed variable order, so every statistic is manager-independent,
    and budget classification runs on the canonical arena.

    The loop stays because at one domain the snapshot sweep only adds
    fixed costs.  Both do the same apply steps to within a few percent,
    but a snapshot sweep seals the good functions, forks a worker arena
    per domain and spawns the domains.  With memo tables sized to the
    arena, sealing and forking c17 take about 0.3 and 0.4 ms (1.9 and
    1.4 ms with one fixed 8.6 MB memo), yet a two-domain c17
    sweep still takes 6.8 ms against 0.23 ms as a loop, engine set-up
    included.  At one domain nothing would pay those costs back: a
    one-domain snapshot sweep took c1355 17.7 s against the loop's
    15.8 s, and c1908 42.6 s against 38.1 s (EXPERIMENTS.md
    "Schedulers"). *)

val analyze_all_stats :
  ?fault_budget:int ->
  ?deterministic:bool ->
  ?journal:journal ->
  ?on_outcome:(int -> outcome -> unit) ->
  ?domains:int ->
  ?scheduler:scheduler ->
  t ->
  Fault.t list ->
  outcome list * sweep_stats
(** {!sweep} under {!Sweep_config.default} with [fault_budget] and
    [domains] overridden.  [deterministic] and [scheduler] are accepted
    and ignored: budgeted sweeps are always canonical, and the domain
    count picks the sweep.  Kept only for the repository benchmark,
    which calls it under this name; everything else calls {!sweep}. *)

val analyze_exact : ?config:Sweep_config.t -> t -> Fault.t list -> result list
(** {!sweep} (with [bounds] off) for callers that require every fault
    exact: unwraps the results and raises [Failure] on the first
    degraded outcome.  With no [fault_budget] and healthy fault
    descriptions every fault is exact. *)
