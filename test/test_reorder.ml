(* Dynamic variable reordering: swap/sift semantics at the BDD level,
   and the reorder-rescue stage at the engine level. *)

let check = Alcotest.check
let bool_t = Alcotest.bool

(* The outcomes of one [Engine.sweep] under [config]. *)
let sweep config t faults = fst (Engine.sweep ~config t faults)

(* ------------------------------------------------------------------ *)
(* BDD-level: swaps and sifting preserve every root's function.       *)

let nvars = 7

(* A deterministic batch of random functions over [nvars] variables. *)
let random_roots m ~seed ~count =
  let rng = Prng.create ~seed in
  let literal () =
    let v = Prng.int rng nvars in
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
  Array.init count (fun _ -> build (3 + Prng.int rng 2))

(* Truth table of a root as a bool array indexed by input valuation. *)
let truth m f =
  Array.init (1 lsl nvars) (fun bits ->
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

(* ------------------------------------------------------------------ *)
(* Engine-level: the reorder-rescue rung of the degradation ladder.
   Both properties run in deterministic mode, which canonicalises the
   arena before every fault — budget classification is then independent
   of arena history, so rescue-on and rescue-off runs climb identical
   ladders up to the rescue rung and the claims below hold exactly. *)

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
        deterministic = true;
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
        deterministic = true;
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
        deterministic = true;
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
   bit-identical, across domain counts and schedulers. *)
let rescue_deterministic_prop seed =
  let c =
    Generate.random ~seed:(seed + 1000) ~inputs:(4 + (seed mod 3)) ~gates:25
      ~outputs:2
  in
  let faults = collapsed_stuck c in
  let budget = 50 + (seed mod 100) in
  let run ~domains ~scheduler =
    let e = Engine.create c in
    sweep
      {
        Sweep_config.default with
        fault_budget = Some budget;
        max_retries = 1;
        reorder = true;
        deterministic = true;
        bounds = false;
        domains;
        scheduler;
      }
      e faults
  in
  let reference = run ~domains:1 ~scheduler:Engine.Static in
  let snapshot = run ~domains:2 ~scheduler:Engine.Snapshot in
  let again = run ~domains:1 ~scheduler:Engine.Static in
  reference = again && reference = snapshot

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
      (QCheck.Test.make ~count:15
         ~name:"rescue only adds exact results (and never changes them)"
         QCheck.small_nat rescue_monotone_prop);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:10
         ~name:"rescue is deterministic across schedulers and domains"
         QCheck.small_nat rescue_deterministic_prop);
  ]

let () = Alcotest.run "reorder" [ ("reorder", tests) ]
