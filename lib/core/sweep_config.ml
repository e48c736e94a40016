type scheduler = Static | Snapshot

type t = {
  node_budget : int;
  fault_budget : int option;
  deadline_ms : float option;
  max_retries : int;
  reorder : bool;
  reorder_growth : float;
  bounds : bool;
  bound_samples : int;
  deterministic : bool;
  epochs : bool;
  epoch_nodes : int;
  domains : int;
  scheduler : scheduler;
}

let default =
  {
    node_budget = 3_000_000;
    fault_budget = None;
    deadline_ms = None;
    max_retries = 2;
    reorder = true;
    (* A variable's sift may not grow the live arena past 120% of its
       starting size. *)
    reorder_growth = 1.2;
    bounds = true;
    bound_samples = 4096;
    deterministic = false;
    epochs = true;
    (* An epoch is closed (and its scratch reclaimed wholesale) once it
       accumulates this many nodes.  Closing flushes the fork-local op
       caches, so the budget amortizes that flush across however many
       small faults fit in one region; a fault bigger than the budget
       simply gets its own epoch.  256k balances the two costs on the
       ISCAS suite: small enough to keep the peak scratch arena ~6x
       below the collect-only policy, large enough that the memo reuse
       lost per close stays in the noise. *)
    epoch_nodes = 262_144;
    domains = 1;
    scheduler = Static;
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
  | { reorder_growth = g; _ } when not (Float.is_finite g && g >= 1.0) ->
    fail "reorder_growth must be finite and >= 1, got %g" g
  | { bound_samples; _ } when bound_samples < 0 ->
    fail "bound_samples must be >= 0, got %d" bound_samples
  | { epoch_nodes; _ } when epoch_nodes < 0 ->
    fail "epoch_nodes must be >= 0, got %d" epoch_nodes
  | { node_budget; _ } when node_budget < 1 ->
    fail "node_budget must be >= 1, got %d" node_budget
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
      reorder_growth;
      bounds;
      bound_samples;
      deterministic;
      node_budget = _;
      epochs = _;
      epoch_nodes = _;
      domains = _;
      scheduler = _;
    } =
  let opt render = function None -> "none" | Some v -> render v in
  let flag b = if b then "1" else "0" in
  Printf.sprintf "b%s-d%s-r%d-o%s-g%h-x%s-s%d-k%s"
    (opt string_of_int fault_budget)
    (opt (Printf.sprintf "%h") deadline_ms)
    max_retries (flag reorder) reorder_growth (flag bounds) bound_samples
    (flag deterministic)
