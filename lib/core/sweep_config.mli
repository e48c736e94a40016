(** The settings of one fault sweep, defined once.

    Every layer that runs or requests a sweep — {!Engine.sweep}, the
    [dpa] commands, the [dpa serve] wire protocol and daemon, the paper
    experiments and the bench harness — carries this record instead of
    re-listing the knobs, so a setting has one name, one default, one
    validation rule and one place in the {!fingerprint} that keys
    checkpoint journals and coalesced sweeps. *)

type t = {
  fault_budget : int option;
      (** per-attempt cap on one fault's fresh BDD allocations.  A
          budgeted sweep restores the canonical arena before every
          fault, so its outcomes are the same at any domain count and
          resume point *)
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
  domains : int;
      (** worker domains; also picks the sweep: one domain runs the
          sequential loop, more run the shared-snapshot sweep (see
          {!Engine.sweep}) *)
}
(** See {!Engine.sweep} for what each setting does to a sweep. *)

val default : t
(** No fault budget, no deadline, [max_retries] 2 (one retry at 4x),
    reorder rescue on with growth cap 1.2, bounds on with 4096 samples,
    1 domain. *)

val validate : t -> (t, string) result
(** The one rule set every boundary applies — [dpa] flags, wire
    requests and {!Engine.sweep}: [fault_budget >= 0]; [deadline_ms]
    finite and [> 0]; [max_retries >= 0]; [bound_samples >= 0];
    [reorder_growth] finite and [>= 1]; [domains >= 1].  [Error] names
    the first violated rule and the offending value; [Ok] carries the
    config unchanged. *)

val fingerprint : t -> string
(** Every setting that can change an outcome, rendered injectively
    (floats as ["%h"] hex, so distinct values never coalesce):
    [fault_budget], [deadline_ms], [max_retries], [reorder],
    [reorder_growth], [bounds] and [bound_samples], followed by a
    [-k1]/[-k0] suffix that says whether a budget is set.  The
    scheduling setting, [domains], is left out: it changes how a sweep
    runs, never what it answers.  Journals and
    coalesced server sweeps are keyed on it, so a result is reused only
    under the settings it was computed with.  Uses only the characters
    [A-Za-z0-9.+-]. *)
