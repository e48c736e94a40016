(** Work-stealing fan-out over batches.

    Results come back index-aligned with the input batches: a caller
    flattening them in order gets exactly the sequential order, whichever
    domain processed what.  Worker state (BDD managers in particular)
    must be built inside the worker — a manager's hash-consing arena is
    single-threaded. *)

val available_domains : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism the
    runtime suggests. *)

val steal_batches :
  ?domains:int ->
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

    No batch is ever run twice: [process] sees each batch exactly once,
    and the result array is complete only once every domain has joined,
    so a domain stuck in one batch holds up the return — bound such a
    wedge with a cooperative deadline inside [process] (see
    [Bdd.with_deadline]). *)
