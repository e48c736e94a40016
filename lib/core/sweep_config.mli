(** The settings of one fault sweep, defined once.

    Every layer that runs or requests a sweep — {!Engine.sweep}, the
    [dpa] commands, the [dpa serve] wire protocol and daemon, the paper
    experiments and the bench harness — carries this record instead of
    re-listing the knobs, so a setting has one name, one default, one
    validation rule and one place in the {!fingerprint} that keys
    checkpoint journals and coalesced sweeps. *)

type scheduler =
  | Static
      (** the sequential reference sweep: a plain loop over the faults
          on the calling engine, one domain — the default.  Asked for
          more than one domain, a sweep runs as {!Snapshot}. *)
  | Snapshot
      (** good functions built {e once} on the calling engine, sealed
          into an immutable snapshot and shared read-only by forked
          workers with private scratch arenas — no per-worker rebuild,
          no locks on the hot path.  Batches are cone-owned: faults with
          overlapping fanout cones share a batch, sized adaptively from
          measured cone overlap, and idle domains steal them off a
          shared queue.  The one multi-domain sweep. *)

type t = {
  node_budget : int;
      (** scratch-arena size past which the engine garbage collects in
          place between faults *)
  fault_budget : int option;
      (** per-attempt cap on one fault's fresh BDD allocations *)
  deadline_ms : float option;
      (** per-attempt wall-clock cap on one fault's analysis *)
  max_retries : int;
      (** height of the degradation ladder: a failed fault is retried
          once, on a pristine build of the good functions, with budget
          and deadline scaled by [2^max_retries] (no retry when 0); the
          reorder rescue runs at the same scale *)
  reorder : bool;  (** the reorder-rescue rung of the degradation ladder *)
  reorder_growth : float;
      (** {!Bdd.sift} growth cap when discovering the rescue order *)
  bounds : bool;
      (** degrade exhausted faults to sampled detectability bounds *)
  bound_samples : int;  (** random vectors per bounded estimate *)
  deterministic : bool;
      (** canonical arena before every fault: budget classification
          independent of arena history *)
  domains : int;  (** worker domains *)
  scheduler : scheduler;
}
(** See {!Engine.sweep} for what each setting does to a sweep. *)

val default : t
(** node budget 3 million, no fault budget, no deadline, [max_retries]
    2 (one retry at 4x), reorder rescue on with growth cap 1.2, bounds
    on with 4096 samples, non-deterministic, 1 domain, {!Static}. *)

val validate : t -> (t, string) result
(** The one rule set every boundary applies — [dpa] flags, wire
    requests and {!Engine.sweep}: [fault_budget >= 0]; [deadline_ms]
    finite and [> 0]; [max_retries >= 0]; [bound_samples >= 0];
    [reorder_growth] finite and [>= 1]; [node_budget >= 1];
    [domains >= 1].  [Error] names the first violated rule and the
    offending value. *)

val fingerprint : t -> string
(** Every setting that can change an outcome of a [deterministic]
    sweep, rendered injectively (floats as ["%h"] hex, so distinct
    values never coalesce): [fault_budget], [deadline_ms],
    [max_retries], [reorder], [reorder_growth], [bounds],
    [bound_samples] and [deterministic].  The arena-management and
    scheduling settings ([node_budget], [domains], [scheduler]) are
    left out: under [deterministic] they change how a sweep runs, never
    what it answers.  Journals and
    coalesced server sweeps are keyed on it, so a result is reused only
    under the settings it was computed with.  Uses only the characters
    [A-Za-z0-9.+-]. *)
