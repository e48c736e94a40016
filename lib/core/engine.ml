(* The reorder rescue's variable order, shared by an engine and every
   fork of it: [None] until the first rescue asks for it, then
   [Some None] when sifting found no distinct order (or the side build
   failed), [Some (Some o)] when rescue attempts run under [o]. *)
type rescue_cell = {
  lock : Mutex.t;
  mutable order : int array option option;
}

type t = {
  base : Circuit.t;
  heuristic : Ordering.heuristic;
  fanouts : int array array;
  output_mark : bool array; (* net -> is a primary output *)
  cone : int list -> int array; (* reusable selective-trace walker *)
  sym : Symbolic.t;
  delta_scratch : Bdd.t array; (* zero outside the cone in flight *)
  (* One-entry memo: a fault's cone is walked once and shared by
     [propagate] and [pos_fed] (and both s-a-v polarities of a line,
     since the key is the site list).  Pure circuit topology, so it
     survives collections. *)
  mutable cone_memo : (int list * int array) option;
  mutable generation : int;
  mutable rebuild_hooks : (unit -> unit) list;
  (* GC accounting, read by the sweep statistics. *)
  mutable gc_time : float;
  mutable gc_runs : int;
  rescue : rescue_cell;
  (* The pristine builds this worker's ladder attempts ran on in the
     current sweep, keyed on the variable order ([None]: the base
     order).  Made on first use, dropped when the sweep returns. *)
  mutable ladder : (int array option * t) list;
  (* Ladder accounting, read by the sweep statistics. *)
  mutable sift_seconds : float;
  mutable sift_before : int;
  mutable sift_after : int;
  mutable rescued : int;
  mutable retries : int; (* top-budget retry attempts entered *)
  (* The currently-open scratch epoch, if any: opened by [analyze_one]
     once a fault's good functions are in place, closed when the region
     budget fills, before any [collect]/[seal], and at sweep end.
     Closing reclaims the whole region at O(survivors) cost — the cheap
     replacement for most budget-triggered collections. *)
  mutable epoch : Bdd.epoch option;
}

let of_symbolic ~base ~heuristic ~fanouts ~output_mark ~rescue sym =
  {
    base;
    heuristic;
    fanouts;
    output_mark;
    (* The walker closes over mutable visit stamps, so every engine —
       and every fork, which may run on another domain — owns one. *)
    cone = Circuit.cone_walker base ~fanouts;
    sym;
    delta_scratch =
      Array.make (Circuit.num_gates base) (Bdd.zero (Symbolic.manager sym));
    cone_memo = None;
    generation = 0;
    rebuild_hooks = [];
    gc_time = 0.0;
    gc_runs = 0;
    rescue;
    ladder = [];
    sift_seconds = 0.0;
    sift_before = 0;
    sift_after = 0;
    rescued = 0;
    retries = 0;
    epoch = None;
  }

let create ?heuristic ?(mem_profile = false) base =
  (* No explicit heuristic: consult the topology oracle.  When it is
     confident a structural order beats declaration order, adopt it —
     the static half of the reorder story; dynamic sifting stays the
     fallback.  The resolution is deterministic per circuit, so every
     worker and fork of a sweep lands on the same order. *)
  let heuristic =
    match heuristic with
    | Some h -> h
    | None ->
      let _, _, _, confident = Ordering.oracle base in
      if confident then Ordering.Oracle else Ordering.Natural
  in
  let output_mark = Array.make (Circuit.num_gates base) false in
  Array.iter (fun o -> output_mark.(o) <- true) base.Circuit.outputs;
  of_symbolic ~base ~heuristic ~fanouts:(Circuit.fanouts base) ~output_mark
    ~rescue:{ lock = Mutex.create (); order = None }
    (Symbolic.build ~profile:mem_profile ~heuristic base)

let circuit t = t.base
let manager t = Symbolic.manager t.sym
let symbolic t = t.sym
let generation t = t.generation
let on_rebuild t hook = t.rebuild_hooks <- hook :: t.rebuild_hooks

let node t g = Symbolic.node_function t.sym g

(* Close the open epoch, if any.  Survivors above the watermark (scratch
   a registered root still reaches) are tenured — renumbered — so this
   is a handle-invalidating event exactly like [collect], and the
   reclamation cost lands in the same GC account. *)
let flush_epoch t =
  match t.epoch with
  | None -> ()
  | Some e ->
    let t0 = Unix.gettimeofday () in
    Bdd.close_epoch (manager t) e;
    t.gc_time <- t.gc_time +. (Unix.gettimeofday () -. t0);
    t.epoch <- None;
    t.generation <- t.generation + 1;
    List.iter (fun hook -> hook ()) t.rebuild_hooks

let collect t =
  flush_epoch t;
  let t0 = Unix.gettimeofday () in
  (* The good-function array is registered with the manager by
     [Symbolic]; the delta scratch rides along as extra roots (all zero
     between faults, but cheap insurance).  Handles are renumbered, so
     externally this is a generation change. *)
  Bdd.collect ~roots:[ t.delta_scratch ] (manager t);
  t.gc_time <- t.gc_time +. (Unix.gettimeofday () -. t0);
  t.gc_runs <- t.gc_runs + 1;
  t.generation <- t.generation + 1;
  List.iter (fun hook -> hook ()) t.rebuild_hooks

(* ------------------------------------------------------------------ *)
(* Snapshot lifecycle: build good functions once, share them read-only
   across worker domains.  [seal] forces every net and freezes the
   arena; [fork] clones the engine around a [Bdd.fork] — shared frozen
   snapshot, private scratch arena, private cone walker. *)

let seal t =
  flush_epoch t;
  Symbolic.seal t.sym;
  (* [Bdd.seal] ran a collect, so scratch handles were renumbered before
     freezing — externally this is a generation change exactly like
     [collect].  (The delta scratch is all-zero between faults and the
     zero terminal is pinned, so it needs no remapping.) *)
  t.generation <- t.generation + 1;
  List.iter (fun hook -> hook ()) t.rebuild_hooks

let sealed t = Bdd.is_sealed (Symbolic.manager t.sym)
let unseal t = Bdd.unseal (Symbolic.manager t.sym)

(* The sifted order depends on the circuit, heuristic and growth cap,
   never on which worker asks, so a fork shares its parent's rescue
   cell: whichever worker of the family first needs it sifts, the rest
   reuse it. *)
let fork t =
  of_symbolic ~base:t.base ~heuristic:t.heuristic ~fanouts:t.fanouts
    ~output_mark:t.output_mark ~rescue:t.rescue (Symbolic.fork t.sym)

let cone_of_sites t sites =
  match t.cone_memo with
  | Some (s, cone) when s = sites -> cone
  | _ ->
    let cone = t.cone sites in
    t.cone_memo <- Some (sites, cone);
    cone

(* Initial difference functions at the fault sites: (net, delta) pairs. *)
let initial_deltas t fault =
  let m = manager t in
  let f net = node t net in
  let against_constant good value =
    if value then Bdd.bnot m good else good
  in
  match fault with
  | Fault.Stuck { Sa_fault.line = Sa_fault.Stem s; value } ->
    [ (s, against_constant (f s) value) ]
  | Fault.Stuck { Sa_fault.line = Sa_fault.Branch br; value } ->
    (* A branch fault changes only one pin: inject the pin difference and
       let the Table-1 rule of the sink gate turn it into the sink's
       output difference. *)
    let sink = br.Circuit.sink in
    let gate = Circuit.gate t.base sink in
    let good = Array.map (fun g -> f g) gate.Circuit.fanins in
    let delta =
      Array.mapi
        (fun pin g ->
          if pin = br.Circuit.pin then against_constant (f g) value
          else Bdd.zero m)
        gate.Circuit.fanins
    in
    [ (sink, Rules.delta m gate.Circuit.kind ~good ~delta) ]
  | Fault.Bridged { Bridge.a; b; kind } ->
    let wired =
      match kind with
      | Bridge.Wired_and -> Bdd.band m (f a) (f b)
      | Bridge.Wired_or -> Bdd.bor m (f a) (f b)
    in
    [ (a, Bdd.bxor m (f a) wired); (b, Bdd.bxor m (f b) wired) ]
  | Fault.Multi_stuck sites ->
    (* Each forced stem has the same difference it would have alone; the
       Table-1 rules are exact under simultaneous input differences, so
       propagation composes the effects correctly. *)
    List.map (fun (s, value) -> (s, against_constant (f s) value)) sites

(* Propagate differences through the fanout cone of the sites and hand
   the scratch delta array to [k].  Selective trace: the cone walker
   enumerates exactly the gates a difference can reach, already in
   topological order, so gates outside the cone are never looked at.
   The scratch is zeroed again before returning. *)
let propagate t fault k =
  let m = manager t in
  let zero = Bdd.zero m in
  let deltas = t.delta_scratch in
  let sites = initial_deltas t fault in
  let cone = cone_of_sites t (List.map fst sites) in
  (* Every scratch write happens inside the protected region (the cone
     contains the sites), so a crash or a blown BDD budget anywhere in
     the walk cannot leave stale deltas behind for the next fault. *)
  Fun.protect
    ~finally:(fun () -> Array.iter (fun g -> deltas.(g) <- zero) cone)
    (fun () ->
      List.iter (fun (net, d) -> deltas.(net) <- d) sites;
      Array.iter
        (fun g ->
          let gate = t.base.Circuit.gates.(g) in
          if (not (List.mem_assoc g sites)) && gate.Circuit.kind <> Gate.Input
          then begin
            let fanins = gate.Circuit.fanins in
            if
              Array.exists (fun f -> not (Bdd.is_zero m deltas.(f))) fanins
            then
              let good = Array.map (fun f -> node t f) fanins in
              let delta = Array.map (fun f -> deltas.(f)) fanins in
              deltas.(g) <- Rules.delta m gate.Circuit.kind ~good ~delta
          end)
        cone;
      k deltas)

let po_differences t fault =
  propagate t fault (fun deltas ->
      Array.map (fun o -> deltas.(o)) t.base.Circuit.outputs)

let test_set t fault =
  let m = manager t in
  Array.fold_left (Bdd.bor m) (Bdd.zero m) (po_differences t fault)

let test_cubes ?limit t fault = Bdd.sat_cubes (manager t) ?limit (test_set t fault)

let redundant t fault = Bdd.is_zero (manager t) (test_set t fault)

let test_vector t fault =
  match Bdd.any_sat (manager t) (test_set t fault) with
  | None -> None
  | Some literals ->
    let v = Array.make (Circuit.num_inputs t.base) false in
    List.iter (fun (pos, value) -> v.(pos) <- value) literals;
    Some v

type result = {
  fault : Fault.t;
  detectability : float;
  test_count : float;
  detectable : bool;
  pos_fed : int;
  pos_observed : int;
  upper_bound : float;
  adherence : float option;
  wired_support : int option;
  test_set_nodes : int;
  rescued_by_reorder : bool;
}

let upper_bound t fault =
  let m = manager t in
  let f net = node t net in
  match fault with
  | Fault.Stuck { Sa_fault.line; value } ->
    let stem = Sa_fault.stem_of_line line in
    let syndrome = Bdd.sat_fraction m (f stem) in
    if value then 1.0 -. syndrome else syndrome
  | Fault.Bridged { Bridge.a; b; _ } ->
    Bdd.sat_fraction m (Bdd.bxor m (f a) (f b))
  | Fault.Multi_stuck sites ->
    (* Excitation of at least one component fault. *)
    let excited =
      List.fold_left
        (fun acc (s, value) ->
          let delta = if value then Bdd.bnot m (f s) else f s in
          Bdd.bor m acc delta)
        (Bdd.zero m) sites
    in
    Bdd.sat_fraction m excited

let wired_support t fault =
  let m = manager t in
  let f net = node t net in
  match fault with
  | Fault.Stuck _ | Fault.Multi_stuck _ -> None
  | Fault.Bridged { Bridge.a; b; kind } ->
    let wired =
      match kind with
      | Bridge.Wired_and -> Bdd.band m (f a) (f b)
      | Bridge.Wired_or -> Bdd.bor m (f a) (f b)
    in
    Some (List.length (Bdd.support m wired))

let pos_fed t fault =
  let cone = cone_of_sites t (Fault.sites fault) in
  Array.fold_left
    (fun acc g -> if t.output_mark.(g) then acc + 1 else acc)
    0 cone

let analyze t fault =
  let m = manager t in
  let per_po = po_differences t fault in
  let union = Array.fold_left (Bdd.bor m) (Bdd.zero m) per_po in
  let detectability = Bdd.sat_fraction m union in
  let upper_bound = upper_bound t fault in
  {
    fault;
    detectability;
    (* |test set| = detectability * 2^n — the same [ldexp]
       [Bdd.sat_count] computes, without re-walking the BDD.  Unlike the
       product with [2.0 ** n], which is infinite from n = 1024 up, it
       keeps an undetectable fault at exactly 0. *)
    test_count = Float.ldexp detectability (Bdd.num_vars m);
    detectable = not (Bdd.is_zero m union);
    pos_fed = pos_fed t fault;
    pos_observed =
      Array.fold_left
        (fun acc d -> if Bdd.is_zero m d then acc else acc + 1)
        0 per_po;
    upper_bound;
    adherence =
      (if upper_bound > 0.0 then Some (detectability /. upper_bound) else None);
    wired_support = wired_support t fault;
    test_set_nodes = Bdd.size m union;
    rescued_by_reorder = false;
  }

type degrade_reason =
  | Over_budget of { nodes : int; budget : int }
  | Over_deadline of { deadline_ms : float }

type outcome =
  | Exact of result
  | Bounded of {
      fault : Fault.t;
      lower : float;
      upper : float;
      syndrome_bound : float;
      samples : int;
      reason : degrade_reason;
    }
  | Budget_exceeded of { fault : Fault.t; nodes : int; budget : int }
  | Deadline_exceeded of {
      fault : Fault.t;
      elapsed_ms : float;
      deadline_ms : float;
    }
  | Crashed of { fault : Fault.t; message : string }

let outcome_fault = function
  | Exact r -> r.fault
  | Bounded { fault; _ }
  | Budget_exceeded { fault; _ }
  | Deadline_exceeded { fault; _ }
  | Crashed { fault; _ } ->
    fault

let is_exact = function Exact _ -> true | _ -> false

let exact_results outcomes =
  List.filter_map (function Exact r -> Some r | _ -> None) outcomes

let degraded outcomes = List.filter (fun o -> not (is_exact o)) outcomes

let outcome_bounds = function
  | Exact r -> Some (r.detectability, r.detectability)
  | Bounded { lower; upper; syndrome_bound; _ } ->
    Some (lower, Float.min upper syndrome_bound)
  | Budget_exceeded _ | Deadline_exceeded _ | Crashed _ -> None

let degrade_reason_to_string = function
  | Over_budget { nodes; budget } ->
    Printf.sprintf "budget %d blown at %d nodes" budget nodes
  | Over_deadline { deadline_ms } ->
    Printf.sprintf "deadline %g ms" deadline_ms

let outcome_to_string c outcome =
  let fault_text fault =
    (* The fault itself may be the malformed input that crashed the
       analysis; never let diagnostics crash with it. *)
    try Fault.to_string c fault with _ -> "<unprintable fault>"
  in
  match outcome with
  | Exact r -> Printf.sprintf "%s: exact" (fault_text r.fault)
  | Bounded { fault; lower; upper; syndrome_bound; samples; reason } ->
    Printf.sprintf
      "%s: bounded detectability [%.6f, %.6f] (syndrome bound %.6f, %d \
       samples; %s)"
      (fault_text fault) lower
      (Float.min upper syndrome_bound)
      syndrome_bound samples
      (degrade_reason_to_string reason)
  | Budget_exceeded { fault; nodes; budget } ->
    Printf.sprintf "%s: BDD budget exceeded (%d nodes allocated, budget %d)"
      (fault_text fault) nodes budget
  | Deadline_exceeded { fault; elapsed_ms; deadline_ms } ->
    Printf.sprintf "%s: deadline exceeded (%.1f ms elapsed, deadline %g ms)"
      (fault_text fault) elapsed_ms deadline_ms
  | Crashed { fault; message } ->
    Printf.sprintf "%s: crashed (%s)" (fault_text fault) message

(* ------------------------------------------------------------------ *)
(* Bounded degradation                                                 *)

let wilson_interval ~z hits samples =
  if hits < 0 || samples < hits then
    invalid_arg "Engine.wilson_interval: hits outside [0, samples]";
  if samples <= 0 then (0.0, 1.0)
  else begin
    let n = float_of_int samples and h = float_of_int hits in
    let p = h /. n in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. n) in
    let centre = (p +. (z2 /. (2.0 *. n))) /. denom in
    let half =
      z /. denom *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n)))
    in
    (* Zero hits certify nothing below zero and centre-half is only zero
       up to rounding, so pin the endpoints where the sample is one-sided
       — the interval must stay sound, not merely approximate. *)
    let lower = if hits = 0 then 0.0 else Float.max 0.0 (centre -. half) in
    let upper =
      if hits = samples then 1.0 else Float.min 1.0 (centre +. half)
    in
    (lower, upper)
  end

(* z = 5 sigma: the interval misses the true detectability with
   probability ~6e-7, so "lower <= exact <= upper" holds for every fault
   of every sweep in practice while the interval stays usefully tight
   (half-width ~5 / (2 sqrt n)). *)
let bound_z = 5.0

(* Cap on the syndrome-bound probe: the bound itself can be the
   explosion (a bridge's [bxor] of two good functions), so it must not
   re-wedge a fault that already degraded. *)
let bound_probe_budget = 1_000_000

(* Deterministic per-fault seed: [Hashtbl.hash] is stable on these
   structural values, so the sampled interval of a fault is identical
   across runs, domains and resume points. *)
let fault_seed fault = Hashtbl.hash fault land 0x3FFFFFFF

let bounded_fallback ~samples t outcome =
  let build fault reason =
    let syndrome_bound =
      try
        Bdd.with_budget (manager t) ~budget:bound_probe_budget (fun () ->
            upper_bound t fault)
      with _ -> 1.0 (* unbounded, but still sound *)
    in
    match
      Fault_sim.sample_detections ~seed:(fault_seed fault) ~patterns:samples
        t.base fault
    with
    | exception _ -> None (* the simulator rejects this fault too *)
    | hits, applied ->
      let lower, upper = wilson_interval ~z:bound_z hits applied in
      Some
        (Bounded { fault; lower; upper; syndrome_bound; samples = applied; reason })
  in
  match outcome with
  | Exact _ | Bounded _ | Crashed _ -> outcome
  | Budget_exceeded { fault; nodes; budget } -> (
    match build fault (Over_budget { nodes; budget }) with
    | Some b -> b
    | None -> outcome)
  | Deadline_exceeded { fault; deadline_ms; _ } -> (
    (* elapsed_ms is dropped on purpose: the Bounded payload must stay
       wall-clock-free so checkpointed sweeps serialize identically. *)
    match build fault (Over_deadline { deadline_ms }) with
    | Some b -> b
    | None -> outcome)

(* ------------------------------------------------------------------ *)
(* Protected per-fault analysis                                        *)

let analyze_protected ?fault_budget ?deadline_ms t fault =
  let with_deadline k =
    match deadline_ms with
    | None -> k ()
    | Some d -> Bdd.with_deadline (manager t) ~deadline_ms:d k
  in
  let with_budget k =
    match fault_budget with
    | None -> k ()
    | Some budget -> Bdd.with_budget (manager t) ~budget k
  in
  try Exact (with_budget (fun () -> with_deadline (fun () -> analyze t fault)))
  with
  | Bdd.Budget_exceeded { nodes; budget } ->
    Budget_exceeded { fault; nodes; budget }
  | Bdd.Deadline_exceeded { elapsed_ms; deadline_ms } ->
    Deadline_exceeded { fault; elapsed_ms; deadline_ms }
  | exn -> Crashed { fault; message = Printexc.to_string exn }

(* The ladder's top rung: the per-fault budget and deadline scaled by
   [2^max_retries].  The retry and the reorder rescue both run at it. *)
let top_budget (cfg : Sweep_config.t) =
  let scale = 1 lsl cfg.max_retries in
  ( Option.map (fun b -> b * scale) cfg.fault_budget,
    Option.map (fun d -> d *. float_of_int scale) cfg.deadline_ms )

(* The worker's pristine build under [order] ([None]: the base order),
   made on first use and kept for the rest of the sweep. *)
let ladder_engine t order =
  match List.assoc_opt order t.ladder with
  | Some e -> e
  | None ->
    let e =
      of_symbolic ~base:t.base ~heuristic:t.heuristic ~fanouts:t.fanouts
        ~output_mark:t.output_mark ~rescue:t.rescue
        (Symbolic.build ~heuristic:t.heuristic ?order t.base)
    in
    t.ladder <- (order, e) :: t.ladder;
    e

(* One ladder attempt: [fault] at the top budget on the pristine build
   under [order], or [None] when that build cannot be made.  The attempt
   runs inside an epoch opened on the untouched build, and closing it
   gives back exactly the build's node set.  A budget counts fresh
   allocations, which depend on that node set alone (not on op-cache
   state or node numbering), so every attempt is classified as it would
   be on a build of its own, whatever attempts ran there before.  The
   result is plain scalars, so it survives the close. *)
let ladder_attempt (cfg : Sweep_config.t) ?order t fault =
  match ladder_engine t order with
  | exception _ -> None
  | e ->
    let m = manager e in
    let budget, deadline = top_budget cfg in
    let epoch = Bdd.open_epoch m in
    let outcome =
      analyze_protected ?fault_budget:budget ?deadline_ms:deadline e fault
    in
    Bdd.close_epoch m epoch;
    Some outcome

(* One retry at the top budget, on the pristine base-order build (a
   crash may be a symptom of arena-history effects, and a pristine arena
   makes the retry's allocation sequence deterministic).  One rung is
   enough: a retry on a pristine build allocates the same nodes whatever
   its cap, so a lower cap could only fail where the top one succeeds. *)
let retry_outcome (cfg : Sweep_config.t) t fault outcome =
  match outcome with
  | Exact _ | Bounded _ -> outcome
  | (Budget_exceeded _ | Deadline_exceeded _ | Crashed _)
    when cfg.max_retries > 0 -> (
    match ladder_attempt cfg t fault with
    | None ->
      (* No pristine build to retry on; keep the more informative
         original. *)
      outcome
    | Some retried ->
      t.retries <- t.retries + 1;
      retried)
  | Budget_exceeded _ | Deadline_exceeded _ | Crashed _ -> outcome

(* ------------------------------------------------------------------ *)
(* Reorder rescue: the rung between the top-budget retry and the
   bounded fallback.  A fault whose difference BDD explodes under the
   build heuristic's variable order may be perfectly tame under a
   sifted one, so before giving up on exactness the engine attempts the
   fault once more, at the ladder's top budget, on a pristine build of
   the good functions under the order Rudell sifting discovers. *)

(* Rescue sifting may not grow the live arena past 120% of its
   starting size.  [Sweep_config.fingerprint]'s [g] slot renders it. *)
let reorder_growth = 1.2

(* The rescue order is discovered once per engine family (an engine and
   its forks share [rescue]), on a *side* manager, so no worker's arena
   is ever sifted in place (a forked worker's frozen tier is shared
   read-only).  The side build and sift are deterministic — same
   circuit, same heuristic, same growth cap — so rescued outcomes stay
   bit-identical across both sweeps, domain counts and resume points.
   Workers that need the order while another sifts wait on the lock. *)
let rescue_order t =
  Mutex.protect t.rescue.lock (fun () ->
      match t.rescue.order with
      | Some cached -> cached
      | None ->
        let t0 = Unix.gettimeofday () in
        let cached =
          match
            let side = Symbolic.build ~heuristic:t.heuristic t.base in
            let m = Symbolic.manager side in
            let base_order = Bdd.current_order m in
            let before, after = Bdd.sift ~max_growth:reorder_growth m in
            (base_order, Bdd.current_order m, before, after)
          with
          | exception _ -> None (* even the side build blew up: no rescue *)
          | base_order, sifted, before, after ->
            t.sift_before <- before;
            t.sift_after <- after;
            if sifted = base_order then None else Some sifted
        in
        t.sift_seconds <- t.sift_seconds +. (Unix.gettimeofday () -. t0);
        t.rescue.order <- Some cached;
        cached)

(* One rescue attempt under the sifted order.  It never touches the
   worker's own arena, so the faults that follow see the same arena
   whether or not this rescue ran (the bit-identity and kill-and-resume
   guarantees survive the rung). *)
let rescue_outcome (cfg : Sweep_config.t) t fault outcome =
  match outcome with
  | Exact _ | Bounded _ -> outcome
  | Budget_exceeded _ | Deadline_exceeded _ | Crashed _ -> (
    match rescue_order t with
    | None -> outcome
    | Some order -> (
      match ladder_attempt cfg ~order t fault with
      | Some (Exact r) ->
        t.rescued <- t.rescued + 1;
        Exact { r with rescued_by_reorder = true }
      | Some (Bounded _ | Budget_exceeded _ | Deadline_exceeded _ | Crashed _)
      | None ->
        (* Keep the original failure: its payload names the budget of
           the heuristic-order retry, which is what reports and journals
           describe. *)
        outcome))

type journal = {
  skip : int -> outcome option;
  record : int -> outcome -> unit;
}

(* An epoch is closed (and its scratch reclaimed wholesale) once it
   accumulates this many nodes.  Closing flushes the fork-local op
   caches, so the budget amortizes that flush across however many small
   faults fit in one region; a fault bigger than the budget simply gets
   its own epoch.  256k balances the two costs on the ISCAS suite: small
   enough to bound the scratch arena, large enough that the memo reuse
   lost per close stays in the noise.  Budgeted sweeps close before
   every fault instead ([analyze_one]). *)
let epoch_region_nodes = 262_144

let analyze_one (cfg : Sweep_config.t) t fault =
  (match (cfg.fault_budget, t.epoch) with
   | Some _, Some _ ->
     (* A budget classifies outcomes by fresh allocations, so a budgeted
        fault must start on the canonical arena.  It was established
        when this epoch opened (see below), nothing below the watermark
        has moved since, and the registered roots reach nothing above it
        (good functions are all built, the delta scratch is zeroed
        between faults) — so closing the epoch restores that canonical
        arena exactly, at O(region) cost instead of an O(live + dead)
        collection. *)
     flush_epoch t
   | Some _, None ->
     (* A budgeted worker's first fault.  Canonical arena: with every
        good function built (in gate order) and everything else
        collected away, the ascending-order compaction yields one arena
        — node numbering, empty op caches — whatever faults ran before
        on whichever engine.  The sizes of the unique table and the op
        memo do follow that history (both only grow), but a fault's
        fresh allocations depend on the node set alone, so budget
        classification, and hence the whole outcome, is reproducible
        across both sweeps, domain counts, resume points and memo
        sizes.  (Deadline classification is wall-clock and stays
        nondeterministic by nature.) *)
     collect t
   | None, Some _ when Bdd.epoch_nodes (manager t) > epoch_region_nodes ->
     (* Unbudgeted outcomes are canonical on any arena: keep the region,
        and with it the nodes and op-cache entries the next fault can
        reuse, until it grows past the region size. *)
     flush_epoch t
   | None, _ -> ());
  (* Open the region once the good functions are in place, so they sit
     below the watermark.  Sealed managers cannot allocate, so there is
     nothing to reclaim on them. *)
  if t.epoch = None && not (Bdd.is_sealed (manager t)) then
    t.epoch <- Some (Bdd.open_epoch (manager t));
  let outcome =
    analyze_protected ?fault_budget:cfg.fault_budget
      ?deadline_ms:cfg.deadline_ms t fault
    |> retry_outcome cfg t fault
  in
  let outcome =
    if cfg.reorder then rescue_outcome cfg t fault outcome else outcome
  in
  if cfg.bounds then bounded_fallback ~samples:cfg.bound_samples t outcome
  else outcome

(* Indexed sweep body: every fault travels with its input-list index,
   so completions can be journaled ([record]) the moment they exist and
   the final merge restores input order whatever the schedule was. *)
let run_batch ~cfg ~record t batch =
  Array.map
    (fun (i, fault) ->
      let o = analyze_one cfg t fault in
      record i o;
      (i, o))
    batch

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)

type scheduler = Static | Snapshot

let scheduler_to_string = function
  | Static -> "static"
  | Snapshot -> "snapshot"

type sweep_stats = {
  scheduler : scheduler;
  domains : int;
  hardware_domains : int;
  batch_count : int;
  largest_batch : int;
  build_seconds : float;
  snapshot_seconds : float;
  analysis_wall_seconds : float;
  analysis_cpu_seconds : float;
  gc_seconds : float;
  gc_collections : int;
  good_functions_built : int;
  scratch_peak_nodes : int;
  apply_steps : int;
  nodes_allocated : int;
  rescued_faults : int;
  retry_attempts : int;
  sift_seconds : float;
  sift_nodes_before : int;
  sift_nodes_after : int;
  epoch_resets : int;
  tenured_nodes : int;
  warm_cache_hits : int;
}

(* Cross-domain accumulator for the per-stage timings; workers report
   under the lock when they finish a unit of work. *)
type stats_acc = {
  lock : Mutex.t;
  mutable acc_build : float;
  mutable acc_snapshot : float;
  mutable acc_wall : float;
  mutable acc_analysis : float;
  mutable acc_gc : float;
  mutable acc_collections : int;
  mutable acc_built : int;
  mutable acc_batches : int;
  mutable acc_largest : int;
  mutable acc_scratch_peak : int;
  mutable acc_steps : int;
  mutable acc_allocs : int;
  mutable acc_rescued : int;
  mutable acc_retries : int;
  mutable acc_sift : float;
  (* The sifted arena sizes are per-manager facts, identical across
     workers of one sweep, so max (not sum) keeps them interpretable. *)
  mutable acc_sift_before : int;
  mutable acc_sift_after : int;
  mutable acc_epochs : int;
  mutable acc_tenured : int;
  mutable acc_warm : int;
}

let fresh_acc () =
  {
    lock = Mutex.create ();
    acc_build = 0.0;
    acc_snapshot = 0.0;
    acc_wall = 0.0;
    acc_analysis = 0.0;
    acc_gc = 0.0;
    acc_collections = 0;
    acc_built = 0;
    acc_batches = 0;
    acc_largest = 0;
    acc_scratch_peak = 0;
    acc_steps = 0;
    acc_allocs = 0;
    acc_rescued = 0;
    acc_retries = 0;
    acc_sift = 0.0;
    acc_sift_before = 0;
    acc_sift_after = 0;
    acc_epochs = 0;
    acc_tenured = 0;
    acc_warm = 0;
  }

let with_acc a f = Mutex.protect a.lock (fun () -> f a)

(* Group faults sharing a site list (both polarities of a line, both
   bridge orientations of a pair), in first-appearance order — fault
   enumeration follows gate order, so this keeps the cone locality of
   the input list. *)
let site_groups indexed =
  let tbl = Hashtbl.create 97 in
  List.iter
    (fun (i, fault) ->
      let key = Fault.sites fault in
      let prev = try Hashtbl.find tbl key with Not_found -> [] in
      Hashtbl.replace tbl key ((i, fault) :: prev))
    indexed;
  let groups =
    Hashtbl.fold (fun key members acc -> (key, List.rev members) :: acc) tbl []
  in
  (* Deterministic: sort by the index of each group's first member. *)
  List.sort
    (fun (_, a) (_, b) -> compare (fst (List.hd a)) (fst (List.hd b)))
    groups

let now = Unix.gettimeofday

(* Every manager a worker holds: its own, and the pristine builds its
   ladder attempts ran on.  The arena counters sum over all of them —
   a ladder build's construction included, since only the ladder made
   it. *)
let managers w = manager w :: List.map (fun (_, e) -> manager e) w.ladder

let arena_sum w counter =
  List.fold_left (fun n m -> n + counter m) 0 (managers w)

(* A worker's counters at one instant.  [charge] adds everything the
   worker did since its [mark] to the sweep's accounts — the one place
   a worker's time, ladder and arena counters reach the statistics,
   whether the worker is the calling engine (the sequential sweep) or a
   snapshot fork (once per batch, and once for its closing epoch).  A
   ladder build made after the mark started from zero, so all of its
   work lands in the charge. *)
type mark = {
  mk_time : float;
  mk_gc : float;
  mk_runs : int;
  mk_rescued : int;
  mk_retries : int;
  mk_sift : float;
  mk_steps : int;
  mk_allocs : int;
  mk_epochs : int;
  mk_tenured : int;
  mk_warm : int;
}

let mark w =
  {
    mk_time = now ();
    mk_gc = w.gc_time;
    mk_runs = w.gc_runs;
    mk_rescued = w.rescued;
    mk_retries = w.retries;
    mk_sift = w.sift_seconds;
    mk_steps = arena_sum w Bdd.apply_steps;
    mk_allocs = arena_sum w Bdd.nodes_allocated;
    mk_epochs = arena_sum w Bdd.epoch_resets;
    mk_tenured = arena_sum w Bdd.tenured_nodes;
    mk_warm = arena_sum w Bdd.warm_cache_hits;
  }

let charge acc w since =
  let gc = w.gc_time -. since.mk_gc in
  let peak =
    List.fold_left (fun p m -> max p (Bdd.scratch_peak m)) 0 (managers w)
  in
  with_acc acc (fun a ->
      a.acc_analysis <- a.acc_analysis +. (now () -. since.mk_time) -. gc;
      a.acc_gc <- a.acc_gc +. gc;
      a.acc_collections <- a.acc_collections + (w.gc_runs - since.mk_runs);
      a.acc_rescued <- a.acc_rescued + (w.rescued - since.mk_rescued);
      a.acc_retries <- a.acc_retries + (w.retries - since.mk_retries);
      a.acc_sift <- a.acc_sift +. (w.sift_seconds -. since.mk_sift);
      a.acc_sift_before <- max a.acc_sift_before w.sift_before;
      a.acc_sift_after <- max a.acc_sift_after w.sift_after;
      a.acc_scratch_peak <- max a.acc_scratch_peak peak;
      a.acc_steps <-
        a.acc_steps + (arena_sum w Bdd.apply_steps - since.mk_steps);
      a.acc_allocs <-
        a.acc_allocs + (arena_sum w Bdd.nodes_allocated - since.mk_allocs);
      a.acc_epochs <-
        a.acc_epochs + (arena_sum w Bdd.epoch_resets - since.mk_epochs);
      a.acc_tenured <-
        a.acc_tenured + (arena_sum w Bdd.tenured_nodes - since.mk_tenured);
      a.acc_warm <-
        a.acc_warm + (arena_sum w Bdd.warm_cache_hits - since.mk_warm))

(* Cone-local visiting order: a stable sort by (lowest site net, fault).
   Nets are numbered in topological order, so faults whose fanout cones
   overlap — a branch fault and the stem faults of its sink gate, which
   [Sa_fault.collapsed_faults] lists hundreds of faults apart — run back
   to back inside one epoch region and reuse its unique-table nodes and
   op-cache entries.  Exact outcomes are canonical and a budgeted sweep
   restores the canonical arena before every fault, so the order moves
   only the work counters; indices travel with the faults.  The
   sequential sweep and every snapshot batch run in this order. *)
let visit_order indexed =
  let keyed =
    Array.of_list
      (List.map
         (fun ((_, fault) as p) ->
           (List.fold_left min max_int (Fault.sites fault), p))
         indexed)
  in
  Array.stable_sort
    (fun (sa, (_, fa)) (sb, (_, fb)) ->
      match Int.compare sa sb with 0 -> Fault.compare fa fb | c -> c)
    keyed;
  Array.map snd keyed

(* Cone-ownership batch formation for the snapshot sweep: site
   groups are packed by *marginal cone cost*.  A group whose fanout cone
   is already (mostly) covered by the current batch adds only its fault
   count, so faults with overlapping cones land in the same batch and
   batch size adapts to the measured overlap instead of a fixed
   faults-per-batch split — a region of heavily shared cones becomes one
   dense batch, scattered cones spread over many.  Each batch runs in
   [visit_order].

   A member cap of n/([batches_per_domain] * domains) keeps at least
   ~[batches_per_domain] batches per domain, so a domain that finishes
   early steals more cone-local work instead of idling while another
   drains one heavy batch (c1908 at two domains: 8 batches instead of
   2). *)
let batches_per_domain = 4

let cone_batches ~domains t indexed =
  let groups = site_groups indexed in
  let n = List.length indexed in
  let stamp = Array.make (max 1 (Circuit.num_gates t.base)) (-1) in
  let cone_of sites =
    (* A malformed fault (out-of-range net) must crash inside the
       protected per-fault analysis, not during batch formation. *)
    try t.cone sites with _ -> [||]
  in
  let with_cones =
    List.map (fun (sites, members) -> (cone_of sites, members)) groups
  in
  (* Cost target per batch, from the no-overlap total: overlap discounts
     only ever pack batches denser than the target predicts. *)
  let total =
    List.fold_left
      (fun acc (cone, members) -> acc + Array.length cone + List.length members)
      0 with_cones
  in
  let target = max 8 (total / (domains * 4)) in
  (* Tiny circuits: the adaptive cost target would shred the fault list
     into dozens of near-empty batches whose scheduling overhead dwarfs
     the analysis (c17: 25 batches for 76 faults at 8 domains).  When
     the whole sweep is cheap, only the member cap may flush, and it
     allows one batch per domain: there is nothing worth rebalancing. *)
  let tiny_cost = 512 in
  let tiny = total < domains * tiny_cost in
  let member_cap =
    let slots = if tiny then domains else batches_per_domain * domains in
    max 1 ((n + slots - 1) / slots)
  in
  let member_floor = if tiny then member_cap else 1 in
  let batches = ref []
  and cur = ref []
  and cur_cost = ref 0
  and cur_members = ref 0
  and batch_id = ref 0 in
  let flush () =
    if !cur <> [] then begin
      batches := visit_order (List.rev !cur) :: !batches;
      cur := [];
      cur_cost := 0;
      cur_members := 0;
      incr batch_id
    end
  in
  List.iter
    (fun (cone, members) ->
      let fresh = ref 0 in
      Array.iter
        (fun g ->
          if stamp.(g) <> !batch_id then begin
            stamp.(g) <- !batch_id;
            incr fresh
          end)
        cone;
      List.iter (fun p -> cur := p :: !cur) members;
      let k = List.length members in
      cur_cost := !cur_cost + !fresh + k;
      cur_members := !cur_members + k;
      if
        (!cur_cost >= target && !cur_members >= member_floor)
        || !cur_members >= member_cap
      then flush ())
    with_cones;
  flush ();
  Array.of_list (List.rev !batches)

(* Shared-snapshot sweep: good functions are built *once*, on the
   calling engine, and frozen ([seal]); every worker — the calling
   domain included — is a [fork] over the snapshot with a private
   scratch arena.  No worker ever re-elaborates a cone, so
   [good_functions_built] is the circuit's gate count whatever the
   domain count, and the only per-domain memory is apply intermediates.
   Batches come from [cone_batches]; workers drain them through the
   stealing queue. *)
let analyze_snapshot ~acc ~cfg ~record ~domains t indexed =
  let m = Symbolic.manager t.sym in
  let steps0 = Bdd.apply_steps m and allocs0 = Bdd.nodes_allocated m in
  let t0 = now () in
  let was_sealed = sealed t in
  if not was_sealed then seal t;
  with_acc acc (fun a -> a.acc_snapshot <- a.acc_snapshot +. (now () -. t0));
  Fun.protect
    ~finally:(fun () ->
      (* Leave the engine as we found it: callers keep using it for
         sequential work after the sweep. *)
      if not was_sealed then unseal t)
    (fun () ->
      let batches = cone_batches ~domains t indexed in
      let domains = min domains (max 1 (Array.length batches)) in
      let workers = ref [] in
      let init () =
        let t1 = now () in
        let w = fork t in
        with_acc acc (fun a ->
            a.acc_build <- a.acc_build +. (now () -. t1);
            workers := w :: !workers);
        w
      in
      let process worker batch =
        let since = mark worker in
        let out = run_batch ~cfg ~record worker batch in
        charge acc worker since;
        out
      in
      let wall0 = now () in
      let results = Parallel.steal_batches ~domains ~init ~process batches in
      with_acc acc (fun a ->
          a.acc_wall <- a.acc_wall +. (now () -. wall0);
          a.acc_batches <- a.acc_batches + Array.length batches;
          a.acc_largest <-
            Array.fold_left
              (fun m b -> max m (Array.length b))
              a.acc_largest batches;
          (* Built once, on the shared snapshot — not per worker. *)
          a.acc_built <- a.acc_built + Symbolic.built_count t.sym;
          a.acc_steps <- a.acc_steps + (Bdd.apply_steps m - steps0);
          a.acc_allocs <- a.acc_allocs + (Bdd.nodes_allocated m - allocs0));
      (* Forks die with the sweep, but the final region close belongs in
         the reset/GC accounts. *)
      List.iter
        (fun w ->
          let since = mark w in
          flush_epoch w;
          charge acc w since)
        !workers;
      (* The loop's failure rule: per-fault failures are outcomes
         ([analyze_protected]), and anything else — [record]'s exception,
         say — reaches the caller, the first one in batch order, once
         every domain has joined. *)
      Array.to_list
        (Array.concat
           (Array.to_list
              (Array.map
                 (function Ok out -> out | Error exn -> raise exn)
                 results))))

(* The sequential reference sweep: a loop on the calling engine, in
   [visit_order] — no seal, no fork, no batch queue, so an exception
   from [record] reaches the caller as it was raised. *)
let analyze_static ~acc ~cfg ~record t indexed =
  let since = mark t in
  (* The engine outlives the sweep (a [dpa serve] cache may hold it);
     the ladder's pristine builds must not. *)
  Fun.protect
    ~finally:(fun () -> t.ladder <- [])
    (fun () ->
      let outcomes = run_batch ~cfg ~record t (visit_order indexed) in
      (* Close the trailing epoch (counted with the sweep's GC) before
         reading the deltas. *)
      flush_epoch t;
      charge acc t since;
      with_acc acc (fun a ->
          a.acc_wall <- a.acc_wall +. (now () -. since.mk_time);
          a.acc_built <- a.acc_built + Symbolic.built_count t.sym;
          a.acc_batches <- a.acc_batches + 1;
          a.acc_largest <- max a.acc_largest (Array.length outcomes));
      Array.to_list outcomes)

let sweep ?(config = Sweep_config.default) ?journal ?on_outcome t faults =
  let cfg =
    match Sweep_config.validate config with
    | Ok cfg ->
      (* The rescue rung only matters when exactness can fail: with no
         per-fault budget or deadline nothing ever degrades, and the
         rung must not cost the common sweep a side build. *)
      {
        cfg with
        reorder =
          cfg.reorder && (cfg.fault_budget <> None || cfg.deadline_ms <> None);
      }
    | Error msg -> invalid_arg ("Engine.sweep: " ^ msg)
  in
  let domains = cfg.domains in
  let scheduler = if domains > 1 then Snapshot else Static in
  let acc = fresh_acc () in
  let n = List.length faults in
  let indexed = List.mapi (fun i f -> (i, f)) faults in
  (* Resume: already-journaled faults are never re-analysed — their
     outcomes merge back verbatim, so a resumed sweep matches the
     uninterrupted one bit for bit. *)
  let skipped, todo =
    match journal with
    | None -> ([], indexed)
    | Some j ->
      List.partition_map
        (fun (i, f) ->
          match j.skip i with
          | Some o -> Either.Left (i, o)
          | None -> Either.Right (i, f))
        indexed
  in
  (* Completion subscribers: the journal's [record] (durability) and
     [on_outcome] (live streaming — the [dpa serve] fan-out) both see
     every computed outcome the moment it exists, from whichever domain
     produced it.  Journal first: an outcome must be durable before any
     subscriber can observe it, or a crash between the two could
     re-serve a streamed result the journal never saw. *)
  let record =
    match (journal, on_outcome) with
    | None, None -> fun _ _ -> ()
    | Some j, None -> j.record
    | None, Some f -> f
    | Some j, Some f ->
      fun i o ->
        j.record i o;
        f i o
  in
  let computed =
    match (scheduler, todo) with
    | _, [] -> []
    | Static, _ -> analyze_static ~acc ~cfg ~record t todo
    | Snapshot, _ -> analyze_snapshot ~acc ~cfg ~record ~domains t todo
  in
  let merged = Array.make n None in
  List.iter (fun (i, o) -> merged.(i) <- Some o) skipped;
  List.iter (fun (i, o) -> merged.(i) <- Some o) computed;
  let outcomes =
    Array.to_list merged
    |> List.map (function
         | Some o -> o
         | None -> invalid_arg "Engine.sweep: lost outcome")
  in
  ( outcomes,
    {
      scheduler;
      domains;
      hardware_domains = Parallel.available_domains ();
      batch_count = acc.acc_batches;
      largest_batch = acc.acc_largest;
      build_seconds = acc.acc_build;
      snapshot_seconds = acc.acc_snapshot;
      analysis_wall_seconds = acc.acc_wall;
      analysis_cpu_seconds = acc.acc_analysis;
      gc_seconds = acc.acc_gc;
      gc_collections = acc.acc_collections;
      good_functions_built = acc.acc_built;
      scratch_peak_nodes = acc.acc_scratch_peak;
      apply_steps = acc.acc_steps;
      nodes_allocated = acc.acc_allocs;
      rescued_faults = acc.acc_rescued;
      retry_attempts = acc.acc_retries;
      sift_seconds = acc.acc_sift;
      sift_nodes_before = acc.acc_sift_before;
      sift_nodes_after = acc.acc_sift_after;
      epoch_resets = acc.acc_epochs;
      tenured_nodes = acc.acc_tenured;
      warm_cache_hits = acc.acc_warm;
    } )

(* [?deterministic] and [?scheduler] are read only by benchmark/ and go
   with ROADMAP item 4. *)
let analyze_all_stats ?fault_budget ?deterministic:_ ?journal ?on_outcome
    ?(domains = 1) ?scheduler:_ t faults =
  sweep
    ~config:{ Sweep_config.default with fault_budget; domains }
    ?journal ?on_outcome t faults

let analyze_exact ?(config = Sweep_config.default) t faults =
  fst (sweep ~config:{ config with bounds = false } t faults)
  |> List.map (function
       | Exact r -> r
       | (Bounded _ | Budget_exceeded _ | Deadline_exceeded _ | Crashed _) as o
         ->
         failwith
           ("Engine.analyze_exact: degraded fault: "
           ^ outcome_to_string t.base o))
