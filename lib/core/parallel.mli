(** Work-stealing fan-out over batches.

    Results come back index-aligned with the input batches: a caller
    flattening them in order gets exactly the sequential order, whichever
    domain processed what.  Worker state (BDD managers in particular)
    must be built inside the worker — a manager's hash-consing arena is
    single-threaded. *)

val available_domains : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism the
    runtime suggests. *)

val patrol_spin_rounds : int
(** Idle patrol rounds served as bare [Domain.cpu_relax] spins before
    the watchdog starts sleeping (see {!patrol_backoff_delay}). *)

val patrol_backoff_delay : int -> float option
(** The watchdog's idle backoff schedule: what a patroller that found
    nothing to rescue on idle round [n] (counted from 0, reset whenever
    a rescue happens) does next — [None] = spin ([Domain.cpu_relax]),
    [Some s] = sleep [s] seconds.  The first {!patrol_spin_rounds}
    rounds spin; after that sleeps double from 0.5 ms to a 50 ms cap,
    so an idle patroller's wakeup rate decays exponentially instead of
    busy-polling at a fixed 2 ms as it once did.  Total time to reach
    the cap is ~100 ms, far below any per-batch deadline, so rescue
    latency is unaffected. *)

val steal_batches :
  ?domains:int ->
  ?batch_deadline:('a -> float) ->
  init:(unit -> 'w) ->
  process:('w -> 'a -> 'b) ->
  'a array ->
  ('b, exn) result array
(** Every domain builds its own worker state with [init] (inside that
    domain), then repeatedly steals the next unclaimed batch off a
    shared atomic counter and runs [process] on it.  The result array is
    index-aligned with the input batches.  A batch whose [process]
    raises is contained as [Error] in its slot while the worker keeps
    stealing; a spawned worker whose [init] fails exits quietly (the
    shared queue lets survivors absorb its share), and the calling
    domain's [init] failure is re-raised after all spawned domains have
    joined.  [domains] defaults to {!available_domains} and is capped by
    the batch count; [1] steals on the calling domain with no spawn.

    Without [batch_deadline] a worker that finds the queue empty
    returns.  With it, the queue gets a watchdog: [batch_deadline batch]
    is the wall-clock seconds the batch may be held by one worker, and a
    worker that finds the queue empty patrols the claim table instead,
    re-executing any unfinished batch held past its deadline — the
    first published result wins, duplicates are discarded, so the
    result array is filled even while one domain is wedged in a
    pathological batch.  Duplication, not preemption: OCaml domains
    cannot be killed, so the overdue claimant keeps running and the
    final join still waits for it to come home — bound the wedge itself
    with a cooperative deadline inside [process] (see
    [Bdd.with_deadline]). *)
