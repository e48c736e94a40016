(* Dynamic variable reordering: swap/sift semantics at the BDD level,
   and the reorder-rescue stage at the engine level. *)

let check = Alcotest.check
let bool_t = Alcotest.bool

(* The outcomes of one [Engine.sweep] under [config]. *)
let sweep config t faults = fst (Engine.sweep ~config t faults)

(* ------------------------------------------------------------------ *)
(* BDD-level: swaps and sifting preserve every root's function.       *)

let nvars = 7

(* A deterministic batch of random functions over the manager's
   variables, each of depth [depth] or [depth + 1]. *)
let random_roots ?(depth = 3) m ~seed ~count =
  let rng = Prng.create ~seed in
  let literal () =
    let v = Prng.int rng (Bdd.num_vars m) in
    if Prng.bool rng then Bdd.var m v else Bdd.nvar m v
  in
  let rec build depth =
    if depth = 0 then literal ()
    else
      let a = build (depth - 1) and b = build (depth - 1) in
      match Prng.int rng 3 with
      | 0 -> Bdd.band m a b
      | 1 -> Bdd.bor m a b
      | _ -> Bdd.bxor m a b
  in
  Array.init count (fun _ -> build (depth + Prng.int rng 2))

(* Truth table of a root as a bool array indexed by input valuation. *)
let truth m f =
  Array.init (1 lsl Bdd.num_vars m) (fun bits ->
      Bdd.eval m f (fun v -> (bits lsr v) land 1 = 1))

let test_swap_preserves_semantics () =
  let m = Bdd.create nvars in
  let roots = random_roots m ~seed:11 ~count:8 in
  let _reg = Bdd.register m roots in
  let before = Array.map (truth m) roots in
  let sats = Array.map (Bdd.sat_fraction m) roots in
  for i = 0 to nvars - 2 do
    Bdd.swap_levels m i;
    Array.iteri
      (fun k f ->
        check bool_t "reduced and ordered" true (Bdd.check_invariants m f);
        check (Alcotest.array bool_t)
          (Printf.sprintf "truth table after swap %d, root %d" i k)
          before.(k) (truth m f))
      roots
  done;
  (* SAT fractions survive the swaps bit-identically: the memo moves
     with the function, and the arithmetic is exact dyadic for small
     variable counts. *)
  Array.iteri
    (fun k f ->
      check bool_t "sat fraction survives swaps" true
        (sats.(k) = Bdd.sat_fraction m f))
    roots

let test_swap_round_trip_restores_order () =
  let m = Bdd.create nvars in
  let roots = random_roots m ~seed:23 ~count:4 in
  let _reg = Bdd.register m roots in
  let order0 = Bdd.current_order m in
  Bdd.swap_levels m 2;
  let order1 = Bdd.current_order m in
  check bool_t "swap changed the order" false (order0 = order1);
  Bdd.swap_levels m 2;
  check bool_t "double swap restores the order" true
    (order0 = Bdd.current_order m);
  (* And the arena is canonical again: same functions, same live size. *)
  Array.iter
    (fun f -> check bool_t "invariants hold" true (Bdd.check_invariants m f))
    roots

let test_sift_shrinks_and_preserves () =
  (* A function with a strongly order-sensitive BDD:
     x0&x3 | x1&x4 | x2&x5 is linear-size under interleaved order and
     exponential-ish under the grouped natural order. *)
  let n = 6 in
  let m = Bdd.create ~order:[| 0; 1; 2; 3; 4; 5 |] n in
  let f =
    Bdd.bor_list m
      [
        Bdd.band m (Bdd.var m 0) (Bdd.var m 3);
        Bdd.band m (Bdd.var m 1) (Bdd.var m 4);
        Bdd.band m (Bdd.var m 2) (Bdd.var m 5);
      ]
  in
  let roots = [| f |] in
  let _reg = Bdd.register m roots in
  let truth_before =
    Array.init (1 lsl n) (fun bits ->
        Bdd.eval m roots.(0) (fun v -> (bits lsr v) land 1 = 1))
  in
  let sat_before = Bdd.sat_fraction m roots.(0) in
  let before, after = Bdd.sift m in
  check bool_t "sift shrank the arena" true (after < before);
  check bool_t "invariants hold after sift" true
    (Bdd.check_invariants m roots.(0));
  check bool_t "arena canonical after sift" true (Bdd.check_arena m);
  check bool_t "sat fraction identical" true
    (sat_before = Bdd.sat_fraction m roots.(0));
  let truth_after =
    Array.init (1 lsl n) (fun bits ->
        Bdd.eval m roots.(0) (fun v -> (bits lsr v) land 1 = 1))
  in
  check (Alcotest.array bool_t) "truth table identical" truth_before
    truth_after;
  (* The optimum for this function is 6 internal nodes (a chain testing
     the pairs adjacently); sifting from the hostile order must land
     well below the 3*2^3-ish start. *)
  check bool_t "reached a small order" true (after <= 8)

let test_sift_rejects_frozen_and_sealed () =
  let m = Bdd.create 4 in
  let roots = [| Bdd.band m (Bdd.var m 0) (Bdd.var m 1) |] in
  let _reg = Bdd.register m roots in
  Bdd.seal m;
  (try
     ignore (Bdd.sift m);
     Alcotest.fail "sift accepted a sealed manager"
   with Invalid_argument _ -> ());
  Bdd.unseal m;
  (* Unsealed but still frozen-tiered: still rejected. *)
  (try
     ignore (Bdd.sift m);
     Alcotest.fail "sift accepted a frozen-tier manager"
   with Invalid_argument _ -> ());
  try
    Bdd.swap_levels m 0;
    Alcotest.fail "swap_levels accepted a frozen-tier manager"
  with Invalid_argument _ -> ()

let sift_semantics_prop seed =
  let m = Bdd.create nvars in
  let roots = random_roots m ~seed ~count:6 in
  let _reg = Bdd.register m roots in
  let before = Array.map (truth m) roots in
  let sats = Array.map (Bdd.sat_fraction m) roots in
  let b, a = Bdd.sift m in
  a <= b
  && Bdd.check_arena m
  && Array.for_all (fun f -> Bdd.check_invariants m f) roots
  && Array.for_all2 (fun tt f -> truth m f = tt) before roots
  && Array.for_all2 (fun s f -> s = Bdd.sat_fraction m f) sats roots

let sift_converges_prop seed =
  (* Each improving pass strictly shrinks the live size, so repeated
     sifting reaches a fixpoint; once there, the order stops moving. *)
  let m = Bdd.create nvars in
  let roots = random_roots m ~seed ~count:4 in
  let _reg = Bdd.register m roots in
  let rec fix rounds =
    if rounds = 0 then false
    else
      let b, a = Bdd.sift m in
      if a = b then true else fix (rounds - 1)
  in
  let converged = fix 20 in
  let order = Bdd.current_order m in
  let b, a = Bdd.sift m in
  converged && a = b && order = Bdd.current_order m

(* A reference sift with the library's schedule, built only from the
   public [swap_levels] and a from-scratch recount after every swap:
   collect under the registered roots and read the arena size.  Level
   widths for the widest-first schedule come from a walk of [roots]. *)
let reference_sift ?(max_growth = 1.2) m roots =
  let size () =
    Bdd.collect m;
    Bdd.allocated_nodes m - 2
  in
  let before = size () in
  let n = Bdd.num_vars m in
  let widths = Array.make n 0 in
  let seen = Hashtbl.create 256 in
  let rec walk f =
    match Bdd.top_var m f with
    | Some v when not (Hashtbl.mem seen f) ->
      Hashtbl.add seen f ();
      let l = Bdd.level_of_var m v in
      widths.(l) <- widths.(l) + 1;
      let f0, f1 = Bdd.cofactors m f v in
      walk f0;
      walk f1
    | _ -> ()
  in
  Array.iter walk roots;
  let vars =
    List.init n (fun l -> (widths.(l), Bdd.var_at_level m l))
    |> List.filter (fun (w, _) -> w > 0)
    |> List.sort (fun (wa, va) (wb, vb) ->
           if wa <> wb then compare wb wa else compare va vb)
    |> List.map snd
  in
  let sift_var v =
    let size0 = size () in
    let start = Bdd.level_of_var m v in
    let best = ref size0 and best_pos = ref start and pos = ref start in
    let cap = max size0 (int_of_float (max_growth *. float_of_int size0)) in
    let step_down () =
      Bdd.swap_levels m !pos;
      incr pos
    and step_up () =
      Bdd.swap_levels m (!pos - 1);
      decr pos
    in
    let rec run step in_range =
      if in_range () then begin
        step ();
        let s = size () in
        if s < !best then begin
          best := s;
          best_pos := !pos
        end;
        if s <= cap then run step in_range
      end
    in
    let down () = run step_down (fun () -> !pos < n - 1)
    and up () = run step_up (fun () -> !pos > 0) in
    if n - 1 - start <= start then (down (); up ()) else (up (); down ());
    while !pos < !best_pos do step_down () done;
    while !pos > !best_pos do step_up () done
  in
  List.iter sift_var vars;
  (before, size ())

(* The counted sift reports the same sizes and lands on the same order
   as the recounting reference, at the default cap and a seed-chosen
   one. *)
let sift_matches_reference_prop seed =
  let max_growth = [| 1.0; 1.2; 1.5; 2.0 |].(seed mod 4) in
  let run (sift : max_growth:float -> Bdd.manager -> Bdd.t array -> int * int) =
    let m = Bdd.create nvars in
    let roots = random_roots m ~seed ~count:6 in
    let _reg = Bdd.register m roots in
    let default = sift ~max_growth:1.2 m roots in
    let capped = sift ~max_growth m roots in
    (default, capped, Bdd.current_order m)
  in
  run (fun ~max_growth m _ -> Bdd.sift ~max_growth m)
  = run (fun ~max_growth m roots -> reference_sift ~max_growth m roots)

(* The rescue order the engine discovers: each circuit side-built under
   the heuristic [Engine.create] resolves through the topology oracle,
   sifted at the default growth cap.  The sizes and orders are the ones
   the full-recount sifter produced, so a faster sifter must find them
   too. *)
let test_rescue_order_pinned () =
  let heuristic c =
    let _, _, _, confident = Ordering.oracle c in
    if confident then Ordering.Oracle else Ordering.Natural
  in
  List.iter
    (fun (name, sizes, order) ->
      let c = Bench_suite.find name in
      let m = Symbolic.manager (Symbolic.build ~heuristic:(heuristic c) c) in
      let b, a = Bdd.sift ~max_growth:Engine.reorder_growth m in
      check
        Alcotest.(pair int int)
        (name ^ " sift sizes") sizes (b, a);
      check Alcotest.(array int) (name ^ " sifted order") order
        (Bdd.current_order m);
      check bool_t (name ^ " arena canonical") true (Bdd.check_arena m))
    [
      ( "c499",
        (16632, 13228),
        [| 39; 0; 1; 2; 5; 7; 8; 9; 10; 4; 6; 3; 12; 14; 15; 16; 17; 11; 13;
           18; 19; 20; 21; 22; 23; 24; 25; 35; 36; 32; 30; 26; 28; 31; 27;
           33; 29; 34; 37; 40; 38 |] );
      ( "c432",
        (99291, 1364),
        [| 0; 9; 18; 27; 1; 10; 19; 28; 2; 11; 20; 29; 3; 30; 12; 21; 4; 13;
           22; 31; 5; 32; 14; 23; 6; 33; 24; 15; 7; 34; 25; 16; 17; 26; 8;
           35 |] );
    ]

(* A deadline that expires mid-sift keeps the partial reorder and
   leaves a canonical, usable manager: every root keeps its truth table
   and SAT fraction.  The windows are fractions of one full sift's
   time, so most of them cut the sift somewhere inside a walk. *)
let test_deadline_interrupted_sift () =
  let fresh () =
    let m = Bdd.create 12 in
    let roots = random_roots ~depth:5 m ~seed:5 ~count:12 in
    let _reg = Bdd.register m roots in
    (m, roots)
  in
  let full_ms =
    let m, _ = fresh () in
    let t0 = Unix.gettimeofday () in
    ignore (Bdd.sift m : int * int);
    (Unix.gettimeofday () -. t0) *. 1000.0
  in
  let raised = ref 0 in
  List.iter
    (fun fraction ->
      let m, roots = fresh () in
      let tts = Array.map (truth m) roots in
      let sats = Array.map (Bdd.sat_fraction m) roots in
      let intact what =
        check bool_t (what ^ ": arena canonical") true (Bdd.check_arena m);
        Array.iteri
          (fun k f ->
            check bool_t (what ^ ": reduced and ordered") true
              (Bdd.check_invariants m f);
            check (Alcotest.array bool_t)
              (Printf.sprintf "%s: truth table of root %d" what k)
              tts.(k) (truth m f);
            check bool_t
              (Printf.sprintf "%s: sat fraction of root %d" what k)
              true
              (sats.(k) = Bdd.sat_fraction m f))
          roots
      in
      let window = Float.max 0.001 (fraction *. full_ms) in
      match Bdd.with_deadline m ~deadline_ms:window (fun () -> Bdd.sift m) with
      | _ -> ()
      | exception Bdd.Deadline_exceeded _ ->
        incr raised;
        intact (Printf.sprintf "cut at %.3f ms" window);
        (* Still usable: apply work and a full sift both go through. *)
        ignore (Bdd.band m roots.(0) roots.(1) : Bdd.t);
        ignore (Bdd.sift m : int * int);
        intact (Printf.sprintf "re-sifted after a cut at %.3f ms" window))
    [ 0.0; 0.05; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ];
  check bool_t "some window expired mid-sift" true (!raised > 0)

(* ------------------------------------------------------------------ *)
(* Engine-level: the reorder-rescue rung of the degradation ladder.
   Every budgeted sweep canonicalises the arena before every fault —
   budget classification is then independent of arena history, so
   rescue-on and rescue-off runs climb identical ladders up to the
   rescue rung and the claims below hold exactly. *)

let collapsed_stuck c =
  List.map (fun f -> Fault.Stuck f) (Sa_fault.collapsed_faults c)

(* Every [Engine.result] field that describes the test set as a Boolean
   function, i.e. all but [test_set_nodes] (and the rescue flag). *)
let same_function (r : Engine.result) (u : Engine.result) =
  r.fault = u.fault
  && r.detectability = u.detectability
  && r.test_count = u.test_count
  && r.detectable = u.detectable
  && r.pos_fed = u.pos_fed
  && r.pos_observed = u.pos_observed
  && r.upper_bound = u.upper_bound
  && r.adherence = u.adherence
  && r.wired_support = u.wired_support

(* c499 fault 52 at budget 5000 blows the first try and the 4x retry and
   is answered on the rescue rung: the same function as the unbudgeted
   answer, but a different BDD size, since size depends on the order. *)
let test_rescued_fields_match_unbudgeted () =
  let c = Bench_suite.find "c499" in
  let fault = Fault.Stuck (List.nth (Sa_fault.collapsed_faults c) 52) in
  let base = Engine.analyze (Engine.create c) fault in
  match
    sweep
      {
        Sweep_config.default with
        fault_budget = Some 5000;
        bounds = false;
      }
      (Engine.create c) [ fault ]
  with
  | [ Engine.Exact r ] ->
    check bool_t "answered on the rescue rung" true r.Engine.rescued_by_reorder;
    check bool_t "order-independent fields match" true (same_function r base);
    check bool_t "test-set size is the sifted order's" true
      (r.Engine.test_set_nodes <> base.Engine.test_set_nodes)
  | [ o ] -> Alcotest.fail ("not rescued: " ^ Engine.outcome_to_string c o)
  | _ -> Alcotest.fail "expected exactly one outcome"

(* Sweep results under a starving budget with rescue on/off must agree
   wherever both complete exactly, and rescue can only increase the
   exact count.  A rescued result answers what an unbudgeted run does
   in every field but [test_set_nodes], the BDD size under the sifted
   order. *)
let rescue_monotone_prop seed =
  let c =
    Generate.random ~seed ~inputs:(4 + (seed mod 4)) ~gates:30 ~outputs:3
  in
  let faults = collapsed_stuck c in
  let budget = 40 + (seed mod 150) in
  let engine_off = Engine.create c in
  let off =
    sweep
      {
        Sweep_config.default with
        fault_budget = Some budget;
        max_retries = 1;
        reorder = false;
        bounds = false;
        domains = 1;
      }
      engine_off faults
  in
  let engine_on = Engine.create c in
  let on =
    sweep
      {
        Sweep_config.default with
        fault_budget = Some budget;
        max_retries = 1;
        reorder = true;
        bounds = false;
        domains = 1;
      }
      engine_on faults
  in
  let exact_count os =
    List.length (List.filter (function Engine.Exact _ -> true | _ -> false) os)
  in
  let unbudgeted =
    sweep { Sweep_config.default with domains = 1 } (Engine.create c) faults
  in
  exact_count on >= exact_count off
  && List.for_all2
       (fun o u ->
         match (o, u) with
         | Engine.Exact r, u when r.Engine.rescued_by_reorder -> (
           match u with Engine.Exact u -> same_function r u | _ -> false)
         | _ -> true)
       on unbudgeted
  && List.for_all2
       (fun a b ->
         match (a, b) with
         | Engine.Exact ra, Engine.Exact rb when not rb.Engine.rescued_by_reorder
           ->
           (* Same fault answered exactly on the same ladder rung: the
              detectability must agree bit-for-bit. *)
           ra.Engine.detectability = rb.Engine.detectability
           && ra.Engine.test_count = rb.Engine.test_count
         | _ -> true)
       off on

(* Rescue must be deterministic: two sweeps with reorder enabled are
   bit-identical, across domain counts (and so across both sweeps). *)
let rescue_deterministic_prop seed =
  let c =
    Generate.random ~seed:(seed + 1000) ~inputs:(4 + (seed mod 3)) ~gates:25
      ~outputs:2
  in
  let faults = collapsed_stuck c in
  let budget = 50 + (seed mod 100) in
  let run domains =
    let e = Engine.create c in
    sweep
      {
        Sweep_config.default with
        fault_budget = Some budget;
        max_retries = 1;
        reorder = true;
        bounds = false;
        domains;
      }
      e faults
  in
  let reference = run 1 in
  reference = run 1 && reference = run (2 + (seed mod 2))

(* The rescue order is sifted once per engine family: the forks of a
   two-domain sweep share it with the engine they came from, so a later
   sweep on that engine reuses it instead of sifting again, and answers
   as the two-domain sweep did. *)
let test_forks_share_rescue_order () =
  let c = Bench_suite.find "c95" in
  let faults = collapsed_stuck c in
  let config domains =
    {
      Sweep_config.default with
      fault_budget = Some 60;
      max_retries = 1;
      bounds = false;
      domains;
    }
  in
  let engine = Engine.create c in
  let forked, on_forks = Engine.sweep ~config:(config 2) engine faults in
  check bool_t "a fork sifted" true (on_forks.Engine.sift_seconds > 0.0);
  check bool_t "and rescued" true (on_forks.Engine.rescued_faults > 0);
  let static, on_engine = Engine.sweep ~config:(config 1) engine faults in
  check (Alcotest.float 0.0) "the engine reused the forks' order" 0.0
    on_engine.Engine.sift_seconds;
  check bool_t "same outcomes at 1 and 2 domains" true (static = forked)

(* A budgeted sweep restores the canonical arena before every fault, so
   which rung answers a fault does not depend on the faults that ran
   before it on the same arena.  c432 fault 138 at budget 2000 needs the
   rescue on the canonical arena; a one-domain sweep that kept the
   previous faults' nodes answered it on the heuristic order instead
   (5,630 test-set nodes), where a two-domain sweep rescued it. *)
let test_c432_budgeted_rescue_canonical () =
  let c = Bench_suite.find "c432" in
  match
    List.nth
      (sweep
         { Sweep_config.default with fault_budget = Some 2000 }
         (Engine.create c) (collapsed_stuck c))
      138
  with
  | Engine.Exact r ->
    check bool_t "answered on the rescue rung" true r.Engine.rescued_by_reorder;
    check Alcotest.int "test-set size under the sifted order" 37
      r.Engine.test_set_nodes
  | o -> Alcotest.fail ("not exact: " ^ Engine.outcome_to_string c o)

(* A budget classifies a fault by its fresh allocations, which depend
   on the arena's node set, never on the op memo: an engine whose memo
   an unbudgeted sweep grew to the cap (2^19 entries) answers a
   budgeted c432 sweep with the same journal lines as a fresh engine
   whose memo sits at the floor, and allocates the same nodes. *)
let test_budgeted_outcomes_ignore_memo_history () =
  let c = Bench_suite.find "c432" in
  let faults = collapsed_stuck c in
  let budgeted = { Sweep_config.default with fault_budget = Some 2000 } in
  let run t =
    let outcomes, stats = Engine.sweep ~config:budgeted t faults in
    (List.mapi Journal.outcome_line outcomes, stats.Engine.nodes_allocated)
  in
  let fresh_lines, fresh_nodes = run (Engine.create c) in
  let grown = Engine.create c in
  ignore (sweep Sweep_config.default grown faults : Engine.outcome list);
  check Alcotest.int "the unbudgeted sweep grew the memo to the cap"
    (1 lsl 19)
    (Bdd.memo_entries (Engine.manager grown));
  let grown_lines, grown_nodes = run grown in
  check
    (Alcotest.list Alcotest.string)
    "byte-identical outcome lines" fresh_lines grown_lines;
  check Alcotest.int "same nodes allocated" fresh_nodes grown_nodes

let tests =
  [
    ("swap preserves semantics", `Quick, test_swap_preserves_semantics);
    ("swap round trip", `Quick, test_swap_round_trip_restores_order);
    ("sift shrinks and preserves", `Quick, test_sift_shrinks_and_preserves);
    ("sift rejects frozen/sealed", `Quick, test_sift_rejects_frozen_and_sealed);
    ( "rescued fields match an unbudgeted run",
      `Quick,
      test_rescued_fields_match_unbudgeted );
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:30 ~name:"sift preserves semantics"
         QCheck.small_nat sift_semantics_prop);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:15 ~name:"sift converges"
         QCheck.small_nat sift_converges_prop);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name:"sift matches a recounting reference"
         QCheck.small_nat sift_matches_reference_prop);
    ("rescue order pinned (c432, c499)", `Quick, test_rescue_order_pinned);
    ( "deadline-interrupted sift stays canonical",
      `Quick,
      test_deadline_interrupted_sift );
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:15
         ~name:"rescue only adds exact results (and never changes them)"
         QCheck.small_nat rescue_monotone_prop);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:10
         ~name:"rescue is deterministic across schedulers and domains"
         QCheck.small_nat rescue_deterministic_prop);
    ("forks share one rescue order", `Quick, test_forks_share_rescue_order);
    ( "c432 budgeted rescue is canonical at one domain",
      `Quick,
      test_c432_budgeted_rescue_canonical );
    ( "budgeted outcomes do not depend on memo history",
      `Quick,
      test_budgeted_outcomes_ignore_memo_history );
  ]

let () = Alcotest.run "reorder" [ ("reorder", tests) ]
