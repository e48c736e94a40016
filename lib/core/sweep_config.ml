type t = {
  fault_budget : int option;
  deadline_ms : float option;
  max_retries : int;
  reorder : bool;
  bounds : bool;
  bound_samples : int;
  domains : int;
}

let default =
  {
    fault_budget = None;
    deadline_ms = None;
    max_retries = 2;
    reorder = true;
    bounds = true;
    bound_samples = 4096;
    domains = 1;
  }

let validate c =
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  match c with
  | { fault_budget = Some b; _ } when b < 0 ->
    fail "fault_budget must be >= 0, got %d" b
  | { deadline_ms = Some d; _ } when not (Float.is_finite d && d > 0.0) ->
    fail "deadline_ms must be finite and > 0, got %g" d
  | { max_retries; _ } when max_retries < 0 ->
    fail "max_retries must be >= 0, got %d" max_retries
  | { bound_samples; _ } when bound_samples < 0 ->
    fail "bound_samples must be >= 0, got %d" bound_samples
  | { domains; _ } when domains < 1 ->
    fail "domains must be >= 1, got %d" domains
  | _ -> Ok c

(* The record pattern is exhaustive on purpose (no [; _]): warning 9 is
   an error under this library's flags, so a new field does not compile
   until someone decides here whether it can change an outcome. *)
let fingerprint
    {
      fault_budget;
      deadline_ms;
      max_retries;
      reorder;
      bounds;
      bound_samples;
      domains = _;
    } =
  let opt render = function None -> "none" | Some v -> render v in
  let flag b = if b then "1" else "0" in
  (* Two slots keep the form older builds wrote, so every journal and
     state-dir file stays resumable.  The [g] slot once rendered a
     settable growth cap for rescue sifting; the cap is now the
     constant [Engine.reorder_growth] (1.2), rendered as before.  The
     trailing [k] once named a canonical-arena switch, which was on
     exactly for budgeted journaled sweeps, so it is derived from the
     budget. *)
  Printf.sprintf "b%s-d%s-r%d-o%s-g0x1.3333333333333p+0-x%s-s%d-k%s"
    (opt string_of_int fault_budget)
    (opt (Printf.sprintf "%h") deadline_ms)
    max_retries (flag reorder) (flag bounds) bound_samples
    (flag (fault_budget <> None))
