(* Unit and property tests for the OBDD engine. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Random Boolean expressions: reference semantics vs BDD semantics.  *)

type expr =
  | T
  | F
  | V of int
  | Neg of expr
  | Conj of expr * expr
  | Disj of expr * expr
  | Excl of expr * expr

let rec eval_expr env = function
  | T -> true
  | F -> false
  | V i -> env.(i)
  | Neg e -> not (eval_expr env e)
  | Conj (a, b) -> eval_expr env a && eval_expr env b
  | Disj (a, b) -> eval_expr env a || eval_expr env b
  | Excl (a, b) -> eval_expr env a <> eval_expr env b

let rec bdd_of_expr m = function
  | T -> Bdd.one m
  | F -> Bdd.zero m
  | V i -> Bdd.var m i
  | Neg e -> Bdd.bnot m (bdd_of_expr m e)
  | Conj (a, b) -> Bdd.band m (bdd_of_expr m a) (bdd_of_expr m b)
  | Disj (a, b) -> Bdd.bor m (bdd_of_expr m a) (bdd_of_expr m b)
  | Excl (a, b) -> Bdd.bxor m (bdd_of_expr m a) (bdd_of_expr m b)

let nvars = 6

let expr_gen =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof [ return T; return F; map (fun i -> V i) (int_bound (nvars - 1)) ]
      else
        frequency
          [
            (1, map (fun i -> V i) (int_bound (nvars - 1)));
            (2, map (fun e -> Neg e) (self (n - 1)));
            (2, map2 (fun a b -> Conj (a, b)) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun a b -> Disj (a, b)) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun a b -> Excl (a, b)) (self (n / 2)) (self (n / 2)));
          ])

let rec expr_to_string = function
  | T -> "1"
  | F -> "0"
  | V i -> Printf.sprintf "x%d" i
  | Neg e -> Printf.sprintf "~%s" (expr_to_string e)
  | Conj (a, b) -> Printf.sprintf "(%s&%s)" (expr_to_string a) (expr_to_string b)
  | Disj (a, b) -> Printf.sprintf "(%s|%s)" (expr_to_string a) (expr_to_string b)
  | Excl (a, b) -> Printf.sprintf "(%s^%s)" (expr_to_string a) (expr_to_string b)

let arbitrary_expr = QCheck.make ~print:expr_to_string expr_gen

let all_envs n =
  List.init (1 lsl n) (fun bits ->
      Array.init n (fun i -> (bits lsr i) land 1 = 1))

let agree m f e =
  List.for_all
    (fun env -> Bdd.eval m f (fun i -> env.(i)) = eval_expr env e)
    (all_envs nvars)

let prop name arb p =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:300 ~name arb p)

let qcheck_cases =
  [
    prop "expr and BDD agree on all assignments" arbitrary_expr (fun e ->
        let m = Bdd.create nvars in
        agree m (bdd_of_expr m e) e);
    prop "reduction invariants hold" arbitrary_expr (fun e ->
        let m = Bdd.create nvars in
        Bdd.check_invariants m (bdd_of_expr m e));
    prop "double negation is identity" arbitrary_expr (fun e ->
        let m = Bdd.create nvars in
        let f = bdd_of_expr m e in
        Bdd.equal (Bdd.bnot m (Bdd.bnot m f)) f);
    prop "De Morgan" (QCheck.pair arbitrary_expr arbitrary_expr)
      (fun (ea, eb) ->
        let m = Bdd.create nvars in
        let a = bdd_of_expr m ea and b = bdd_of_expr m eb in
        Bdd.equal
          (Bdd.bnot m (Bdd.band m a b))
          (Bdd.bor m (Bdd.bnot m a) (Bdd.bnot m b)));
    prop "xor ring: a^b = (a|b) & ~(a&b)"
      (QCheck.pair arbitrary_expr arbitrary_expr) (fun (ea, eb) ->
        let m = Bdd.create nvars in
        let a = bdd_of_expr m ea and b = bdd_of_expr m eb in
        Bdd.equal (Bdd.bxor m a b)
          (Bdd.band m (Bdd.bor m a b) (Bdd.bnot m (Bdd.band m a b))));
    prop "ite f 1 0 = f" arbitrary_expr (fun e ->
        let m = Bdd.create nvars in
        let f = bdd_of_expr m e in
        Bdd.equal (Bdd.ite m f (Bdd.one m) (Bdd.zero m)) f);
    prop "ite against or/and decomposition"
      (QCheck.triple arbitrary_expr arbitrary_expr arbitrary_expr)
      (fun (ef, eg, eh) ->
        let m = Bdd.create nvars in
        let f = bdd_of_expr m ef in
        let g = bdd_of_expr m eg in
        let h = bdd_of_expr m eh in
        Bdd.equal (Bdd.ite m f g h)
          (Bdd.bor m (Bdd.band m f g) (Bdd.band m (Bdd.bnot m f) h)));
    prop "sat_count equals truth-table count" arbitrary_expr (fun e ->
        let m = Bdd.create nvars in
        let f = bdd_of_expr m e in
        let expected =
          List.length (List.filter (fun env -> eval_expr env e) (all_envs nvars))
        in
        int_of_float (Bdd.sat_count m f) = expected);
    prop "restrict = semantic cofactor"
      (QCheck.pair arbitrary_expr (QCheck.int_bound (nvars - 1)))
      (fun (e, v) ->
        let m = Bdd.create nvars in
        let f = bdd_of_expr m e in
        let f1 = Bdd.restrict m f ~var:v ~value:true in
        List.for_all
          (fun env ->
            let env' = Array.copy env in
            env'.(v) <- true;
            Bdd.eval m f1 (fun i -> env.(i)) = eval_expr env' e)
          (all_envs nvars));
    prop "restricted variable leaves the support"
      (QCheck.pair arbitrary_expr (QCheck.int_bound (nvars - 1)))
      (fun (e, v) ->
        let m = Bdd.create nvars in
        let f = bdd_of_expr m e in
        not
          (List.mem v (Bdd.support m (Bdd.restrict m f ~var:v ~value:false))));
    prop "compose matches substitution semantics"
      (QCheck.triple arbitrary_expr arbitrary_expr (QCheck.int_bound (nvars - 1)))
      (fun (ef, eg, v) ->
        let m = Bdd.create nvars in
        let f = bdd_of_expr m ef and g = bdd_of_expr m eg in
        let composed = Bdd.compose m f ~var:v g in
        List.for_all
          (fun env ->
            let env' = Array.copy env in
            env'.(v) <- eval_expr env eg;
            Bdd.eval m composed (fun i -> env.(i)) = eval_expr env' ef)
          (all_envs nvars));
    prop "exists v f = f|v=0 or f|v=1"
      (QCheck.pair arbitrary_expr (QCheck.int_bound (nvars - 1)))
      (fun (e, v) ->
        let m = Bdd.create nvars in
        let f = bdd_of_expr m e in
        let f0, f1 = Bdd.cofactors m f v in
        Bdd.equal (Bdd.exists m [ v ] f) (Bdd.bor m f0 f1));
    prop "forall dual to exists"
      (QCheck.pair arbitrary_expr (QCheck.int_bound (nvars - 1)))
      (fun (e, v) ->
        let m = Bdd.create nvars in
        let f = bdd_of_expr m e in
        Bdd.equal
          (Bdd.forall m [ v ] f)
          (Bdd.bnot m (Bdd.exists m [ v ] (Bdd.bnot m f))));
    prop "any_sat satisfies" arbitrary_expr (fun e ->
        let m = Bdd.create nvars in
        let f = bdd_of_expr m e in
        match Bdd.any_sat m f with
        | None -> Bdd.is_zero m f
        | Some literals ->
          let env = Array.make nvars false in
          List.iter (fun (v, value) -> env.(v) <- value) literals;
          Bdd.eval m f (fun i -> env.(i)));
    prop "sat_cubes cover exactly the on-set" arbitrary_expr (fun e ->
        let m = Bdd.create nvars in
        let f = bdd_of_expr m e in
        let cubes = Bdd.sat_cubes m f in
        let covered env =
          List.exists
            (fun cube -> List.for_all (fun (v, value) -> env.(v) = value) cube)
            cubes
        in
        List.for_all (fun env -> covered env = eval_expr env e) (all_envs nvars));
    prop "of_fun reproduces the function" arbitrary_expr (fun e ->
        let m = Bdd.create nvars in
        let direct = bdd_of_expr m e in
        let from_fun = Bdd.of_fun m ~arity:nvars (fun env -> eval_expr env e) in
        Bdd.equal direct from_fun);
    prop "rebuild to a shuffled order preserves the function"
      arbitrary_expr (fun e ->
        let m = Bdd.create nvars in
        let f = bdd_of_expr m e in
        let order = [| 3; 1; 5; 0; 4; 2 |] in
        let m' = Bdd.create ~order nvars in
        let f' = Bdd.rebuild ~src:m ~dst:m' f in
        Bdd.check_invariants m' f'
        && List.for_all
             (fun env ->
               Bdd.eval m' f' (fun i -> env.(i)) = eval_expr env e)
             (all_envs nvars));
    prop "sat_fraction of complement sums to one" arbitrary_expr (fun e ->
        let m = Bdd.create nvars in
        let f = bdd_of_expr m e in
        let total = Bdd.sat_fraction m f +. Bdd.sat_fraction m (Bdd.bnot m f) in
        Float.abs (total -. 1.0) < 1e-12);
    (* Both argument orders back to back in one manager: a cache key
       normalized like the commutative ops' would answer the second
       call with the first call's entry. *)
    prop "bandnot a b = a & ~b in both orders"
      (QCheck.pair arbitrary_expr arbitrary_expr) (fun (ea, eb) ->
        let m = Bdd.create nvars in
        let a = bdd_of_expr m ea and b = bdd_of_expr m eb in
        let ab = Bdd.bandnot m a b in
        let ba = Bdd.bandnot m b a in
        Bdd.equal ab (Bdd.band m a (Bdd.bnot m b))
        && Bdd.equal ba (Bdd.band m b (Bdd.bnot m a))
        && Bdd.check_arena m);
  ]

(* ------------------------------------------------------------------ *)
(* Unit tests.                                                         *)

let test_constants () =
  let m = Bdd.create 3 in
  check bool_t "zero is const" true (Bdd.is_const m (Bdd.zero m));
  check bool_t "one is const" true (Bdd.is_const m (Bdd.one m));
  check bool_t "zero <> one" false (Bdd.equal (Bdd.zero m) (Bdd.one m));
  check bool_t "var not const" false (Bdd.is_const m (Bdd.var m 0))

let test_var_nvar () =
  let m = Bdd.create 3 in
  check bool_t "nvar = not var" true
    (Bdd.equal (Bdd.nvar m 1) (Bdd.bnot m (Bdd.var m 1)));
  check bool_t "var and nvar conflict" true
    (Bdd.is_zero m (Bdd.band m (Bdd.var m 1) (Bdd.nvar m 1)));
  check bool_t "var or nvar tautology" true
    (Bdd.is_one m (Bdd.bor m (Bdd.var m 1) (Bdd.nvar m 1)))

let test_out_of_range () =
  let m = Bdd.create 3 in
  Alcotest.check_raises "var 3" (Bdd.Variable_out_of_range 3) (fun () ->
      ignore (Bdd.var m 3));
  Alcotest.check_raises "var -1" (Bdd.Variable_out_of_range (-1)) (fun () ->
      ignore (Bdd.var m (-1)))

let test_hash_consing () =
  let m = Bdd.create 4 in
  let f1 = Bdd.band m (Bdd.var m 0) (Bdd.var m 1) in
  let f2 = Bdd.band m (Bdd.var m 1) (Bdd.var m 0) in
  check bool_t "commutativity gives identical handles" true (Bdd.equal f1 f2)

let test_derived_connectives () =
  let m = Bdd.create 2 in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  check bool_t "nand" true
    (Bdd.equal (Bdd.bnand m a b) (Bdd.bnot m (Bdd.band m a b)));
  check bool_t "nor" true
    (Bdd.equal (Bdd.bnor m a b) (Bdd.bnot m (Bdd.bor m a b)));
  check bool_t "xnor" true
    (Bdd.equal (Bdd.bxnor m a b) (Bdd.bnot m (Bdd.bxor m a b)));
  check bool_t "imp" true
    (Bdd.equal (Bdd.bimp m a b) (Bdd.bor m (Bdd.bnot m a) b))

let test_list_connectives () =
  let m = Bdd.create 4 in
  let vs = List.init 4 (Bdd.var m) in
  check (Alcotest.float 1e-12) "and_list satfrac" (1.0 /. 16.0)
    (Bdd.sat_fraction m (Bdd.band_list m vs));
  check (Alcotest.float 1e-12) "or_list satfrac" (15.0 /. 16.0)
    (Bdd.sat_fraction m (Bdd.bor_list m vs));
  check (Alcotest.float 1e-12) "xor_list satfrac" 0.5
    (Bdd.sat_fraction m (Bdd.bxor_list m vs))

let test_support_and_size () =
  let m = Bdd.create 5 in
  let f = Bdd.band m (Bdd.var m 0) (Bdd.bxor m (Bdd.var m 2) (Bdd.var m 4)) in
  check (Alcotest.list int_t) "support" [ 0; 2; 4 ] (Bdd.support m f);
  check bool_t "size positive" true (Bdd.size m f > 0);
  check int_t "const size" 0 (Bdd.size m (Bdd.one m))

let test_top_var () =
  let m = Bdd.create 3 in
  check (Alcotest.option int_t) "top of var 1" (Some 1)
    (Bdd.top_var m (Bdd.var m 1));
  check (Alcotest.option int_t) "top of const" None (Bdd.top_var m (Bdd.one m))

let test_top_var_respects_order () =
  let m = Bdd.create ~order:[| 2; 0; 1 |] 3 in
  let f = Bdd.band m (Bdd.var m 0) (Bdd.var m 2) in
  check (Alcotest.option int_t) "var 2 is topmost under the order" (Some 2)
    (Bdd.top_var m f)

let test_cube () =
  let m = Bdd.create 4 in
  let f = Bdd.cube m [ (0, true); (2, false) ] in
  check (Alcotest.float 1e-12) "cube satfrac" 0.25 (Bdd.sat_fraction m f);
  check bool_t "cube eval" true
    (Bdd.eval m f (fun i -> i = 0 || i = 1 || i = 3))

let test_sat_cubes_limit () =
  let m = Bdd.create 4 in
  let f = Bdd.bxor_list m (List.init 4 (Bdd.var m)) in
  let limited = Bdd.sat_cubes m ~limit:3 f in
  check int_t "limit respected" 3 (List.length limited)

let test_parity_bdd_is_linear_size () =
  let n = 40 in
  let m = Bdd.create n in
  let f = Bdd.bxor_list m (List.init n (Bdd.var m)) in
  check bool_t "parity size is linear" true (Bdd.size m f <= 2 * n);
  check (Alcotest.float 1e-12) "parity satfrac" 0.5 (Bdd.sat_fraction m f)

let test_clear_caches_preserves_results () =
  let m = Bdd.create 6 in
  let f = Bdd.band m (Bdd.var m 0) (Bdd.bor m (Bdd.var m 1) (Bdd.var m 2)) in
  Bdd.clear_caches m;
  let g = Bdd.band m (Bdd.var m 0) (Bdd.bor m (Bdd.var m 1) (Bdd.var m 2)) in
  check bool_t "same node after cache clear" true (Bdd.equal f g)

let test_many_nodes_grow () =
  (* Push past the initial arena capacity to exercise growth & rehash. *)
  let n = 16 in
  let m = Bdd.create n in
  let rng = Prng.create ~seed:3 in
  let f = ref (Bdd.zero m) in
  for _ = 1 to 200 do
    let v1 = Bdd.var m (Prng.int rng n) in
    let v2 = Bdd.var m (Prng.int rng n) in
    f := Bdd.bxor m !f (Bdd.band m v1 v2)
  done;
  check bool_t "invariants after heavy growth" true (Bdd.check_invariants m !f);
  check bool_t "allocated nodes grew" true (Bdd.allocated_nodes m > 1024);
  check bool_t "arena canonical after heavy growth" true (Bdd.check_arena m);
  let roots = [| !f |] in
  Bdd.collect ~roots:[ roots ] m;
  check bool_t "collect reclaimed garbage" true (Bdd.allocated_nodes m < 1024);
  check bool_t "arena canonical after collect" true (Bdd.check_arena m);
  check bool_t "invariants after collect" true
    (Bdd.check_invariants m roots.(0));
  (* Rebuilding the same function after the collection must find the
     survivors through the rebuilt table, not duplicate them. *)
  let rng = Prng.create ~seed:3 in
  let g = ref (Bdd.zero m) in
  for _ = 1 to 200 do
    let v1 = Bdd.var m (Prng.int rng n) in
    let v2 = Bdd.var m (Prng.int rng n) in
    g := Bdd.bxor m !g (Bdd.band m v1 v2)
  done;
  check bool_t "rebuilt function is the survivor" true (Bdd.equal !g roots.(0));
  check bool_t "arena canonical after regrowth" true (Bdd.check_arena m)

(* The apply kernel allocates nothing on the OCaml heap: a chain of
   cache-missing operations that creates thousands of fresh nodes
   leaves the minor-heap counter where it was.  Node-array growth and
   rehashes go straight to the major heap, so they do not count. *)
let test_apply_allocation_free () =
  let n = 18 in
  let m = Bdd.create n in
  let vars = Array.init n (Bdd.var m) in
  let rng = Prng.create ~seed:11 in
  let picks = Array.init 4096 (fun _ -> Prng.int rng n) in
  let chain offset =
    let f = ref (Bdd.zero m) and g = ref (Bdd.one m) in
    for i = 0 to 299 do
      let a = vars.(picks.(offset + (3 * i))) in
      let b = vars.(picks.(offset + (3 * i) + 1)) in
      let c = vars.(picks.(offset + (3 * i) + 2)) in
      f := Bdd.bxor m !f (Bdd.band m a b);
      g := Bdd.bor m (Bdd.band m !g (Bdd.bnot m c)) (Bdd.ite m a b c);
      g := Bdd.bandnot m !g (Bdd.bandnot m c !f)
    done;
    Bdd.ite m !f !g (Bdd.bnot m !f)
  in
  (* Warm-up: arrays and tables reach their working sizes. *)
  ignore (chain 0 : Bdd.t);
  let steps0 = Bdd.apply_steps m and nodes0 = Bdd.nodes_allocated m in
  let words0 = Gc.minor_words () in
  let r = chain 2048 in
  let words = Gc.minor_words () -. words0 in
  let steps = Bdd.apply_steps m - steps0 in
  let fresh = Bdd.nodes_allocated m - nodes0 in
  check bool_t (Printf.sprintf "chain runs >= 10k apply steps (%d)" steps)
    true (steps >= 10_000);
  check bool_t (Printf.sprintf "chain allocates fresh nodes (%d)" fresh)
    true (fresh >= 5_000);
  check bool_t
    (Printf.sprintf "minor words under 64 (%.0f for %d steps)" words steps)
    true (words < 64.0);
  check bool_t "result well formed" true (Bdd.check_invariants m r);
  check bool_t "arena canonical" true (Bdd.check_arena m)

(* The warm cache that [seal] captures decodes the op code from each
   entry's key ([land 7]); an and-not entry must come back as and-not,
   with its operands in their given order, on a fork. *)
let test_bandnot_warm_cache () =
  let m = Bdd.create 4 in
  let x = Bdd.var m in
  let a = Bdd.bor m (x 0) (Bdd.band m (x 1) (x 3)) in
  let b = Bdd.bxor m (x 1) (Bdd.band m (x 2) (x 3)) in
  let roots = [| a; b; Bdd.bandnot m a b; Bdd.bandnot m b a |] in
  ignore (Bdd.register m roots : Bdd.registration);
  Bdd.seal m;
  let w = Bdd.fork m in
  let a = roots.(0) and b = roots.(1) in
  let ab = Bdd.bandnot w a b and ba = Bdd.bandnot w b a in
  check bool_t "warm cache answered" true (Bdd.warm_cache_hits w > 0);
  check bool_t "a & ~b on the fork" true (Bdd.equal ab roots.(2));
  check bool_t "b & ~a on the fork" true (Bdd.equal ba roots.(3));
  check bool_t "a & ~b is not b & ~a" false (Bdd.equal ab ba);
  check bool_t "agrees with band/bnot" true
    (Bdd.equal ab (Bdd.band w a (Bdd.bnot w b))
    && Bdd.equal ba (Bdd.band w b (Bdd.bnot w a)));
  check bool_t "fork canonical" true (Bdd.check_arena w);
  Bdd.unseal m

(* The op memo has one entry per unique-table slot, never fewer than
   2^16, so a c17-sized manager no longer pays for a memo built for a
   large one: create, seal and fork each allocate under 4 MB (a fixed
   2^18-entry memo made create and fork allocate 8.7 MB each, and seal
   6.6 MB). *)
let test_small_arena_allocation () =
  let allocating f =
    let b0 = Gc.allocated_bytes () in
    let r = f () in
    (r, Gc.allocated_bytes () -. b0)
  in
  let limit = 4.0 *. 1024. *. 1024. in
  let under label bytes =
    check bool_t (Printf.sprintf "%s allocates %.0f bytes" label bytes) true
      (bytes < limit)
  in
  let m, created = allocating (fun () -> Bdd.create 5) in
  under "create" created;
  (* c17: six NAND gates over five inputs. *)
  let x = Bdd.var m in
  let g10 = Bdd.bnand m (x 0) (x 2) and g11 = Bdd.bnand m (x 2) (x 3) in
  let g16 = Bdd.bnand m (x 1) g11 and g19 = Bdd.bnand m g11 (x 4) in
  let roots = [| Bdd.bnand m g10 g16; Bdd.bnand m g16 g19 |] in
  ignore (Bdd.register m roots : Bdd.registration);
  let (), sealed = allocating (fun () -> Bdd.seal m) in
  under "seal" sealed;
  let w, forked = allocating (fun () -> Bdd.fork m) in
  under "fork" forked;
  check int_t "memo at the floor" (1 lsl 16) (Bdd.memo_entries w);
  let both = Bdd.band w roots.(0) roots.(1) in
  check bool_t "fork answers" true (Bdd.check_invariants w both);
  check bool_t "fork canonical" true (Bdd.check_arena w);
  Bdd.unseal m

(* [x_i = y_i] for every i in [lo, hi), over variables x_i = i and
   y_i = n + i.  Under that separated order the full comparison has
   about 3 * 2^n nodes, while each half of it stays small. *)
let equal_halves m ~n lo hi =
  let acc = ref (Bdd.one m) in
  for i = lo to hi - 1 do
    acc := Bdd.band m !acc (Bdd.bxnor m (Bdd.var m i) (Bdd.var m (n + i)))
  done;
  !acc

(* One [band] of two small halves builds about 200k nodes, so the
   unique table doubles seven times inside that single recursion and
   the memo with it (2^16 to 2^19 entries): entries stored after a
   doubling were probed under the old mask.  The result must be the
   comparison built gate by gate, and the same function as on a
   manager whose tables were already grown. *)
let test_memo_grows_mid_apply () =
  let n = 16 in
  let m = Bdd.create (2 * n) in
  let lo = equal_halves m ~n 0 (n / 2) and hi = equal_halves m ~n (n / 2) n in
  check int_t "memo starts at the floor" (1 lsl 16) (Bdd.memo_entries m);
  let r = Bdd.band m lo hi in
  check int_t "memo grew to the cap mid-apply" (1 lsl 19) (Bdd.memo_entries m);
  check bool_t "arena canonical" true (Bdd.check_arena m);
  check bool_t "same node as the gate-by-gate comparison" true
    (Bdd.equal r (equal_halves m ~n 0 n));
  let grown = Bdd.create (2 * n) in
  ignore (equal_halves grown ~n 0 n : Bdd.t);
  Bdd.collect grown;
  check int_t "pre-grown memo" (1 lsl 19) (Bdd.memo_entries grown);
  let g =
    Bdd.band grown (equal_halves grown ~n 0 (n / 2))
      (equal_halves grown ~n (n / 2) n)
  in
  check bool_t "pre-grown arena canonical" true (Bdd.check_arena grown);
  check int_t "same size" (Bdd.size grown g) (Bdd.size m r);
  check (Alcotest.float 0.0) "same sat count" (Bdd.sat_count grown g)
    (Bdd.sat_count m r)

(* [seal] captures a warm cache as large as the sealed manager's memo,
   with its own mask.  A build that grew the memo to 2^19 entries and
   then dropped nearly everything leaves a small snapshot, so a fork's
   private memo sits at the floor while the warm cache it shares holds
   2^19 entries: every lookup below must still land on its warm entry
   (no apply step at all) and answer the canonical frozen handle. *)
let test_warm_cache_wider_than_fork () =
  let n = 16 in
  let m = Bdd.create (2 * n) in
  ignore
    (Bdd.band m (equal_halves m ~n 0 (n / 2)) (equal_halves m ~n (n / 2) n)
      : Bdd.t);
  check int_t "build memo at the cap" (1 lsl 19) (Bdd.memo_entries m);
  let x = Bdd.var m in
  let a = Bdd.bor m (x 0) (Bdd.band m (x 1) (x 17)) in
  let b = Bdd.bxor m (x 1) (Bdd.band m (x 16) (x 3)) in
  let ops =
    [| Bdd.band; Bdd.bor; Bdd.bxor; Bdd.bandnot; (fun m a b -> Bdd.bandnot m b a) |]
  in
  let roots = Array.append [| a; b |] (Array.map (fun op -> op m a b) ops) in
  ignore (Bdd.register m roots : Bdd.registration);
  Bdd.seal m;
  let w = Bdd.fork m in
  check int_t "fork memo at the floor" (1 lsl 16) (Bdd.memo_entries w);
  let a = roots.(0) and b = roots.(1) in
  Array.iteri
    (fun i op ->
      check bool_t
        (Printf.sprintf "op %d answers the frozen handle" i)
        true
        (Bdd.equal (op w a b) roots.(i + 2)))
    ops;
  check int_t "every answer came from the warm cache" (Array.length ops)
    (Bdd.warm_cache_hits w);
  check int_t "without an apply step" 0 (Bdd.apply_steps w);
  check bool_t "fork canonical" true (Bdd.check_arena w);
  Bdd.unseal m

(* Float.ldexp, not [2.0 ** n]: the zero function counts 0 tests at any
   width, where the product gave 0 * inf = nan from 1024 variables up. *)
let test_sat_count_wide () =
  let m = Bdd.create 1100 in
  check (Alcotest.float 0.0) "zero function" 0.0 (Bdd.sat_count m (Bdd.zero m));
  check bool_t "one function overflows to infinity" true
    (Bdd.sat_count m (Bdd.one m) = infinity);
  let m = Bdd.create 40 in
  check (Alcotest.float 0.0) "x0 & x1 of 40" (Float.pow 2.0 38.0)
    (Bdd.sat_count m (Bdd.band m (Bdd.var m 0) (Bdd.var m 1)))

let test_rebuild_rejects_mismatch () =
  let m1 = Bdd.create 3 and m2 = Bdd.create 4 in
  let f = Bdd.var m1 0 in
  Alcotest.check_raises "universe mismatch"
    (Invalid_argument "Bdd.rebuild: variable universes differ") (fun () ->
      ignore (Bdd.rebuild ~src:m1 ~dst:m2 f))

let test_create_rejects_bad_order () =
  Alcotest.check_raises "short order"
    (Invalid_argument "Bdd.create: order length mismatch") (fun () ->
      ignore (Bdd.create ~order:[| 0 |] 2));
  Alcotest.check_raises "duplicate order"
    (Invalid_argument "Bdd.create: order is not a permutation") (fun () ->
      ignore (Bdd.create ~order:[| 0; 0 |] 2))

let unit_cases =
  [
    Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "var / nvar" `Quick test_var_nvar;
    Alcotest.test_case "variable range checks" `Quick test_out_of_range;
    Alcotest.test_case "hash consing" `Quick test_hash_consing;
    Alcotest.test_case "derived connectives" `Quick test_derived_connectives;
    Alcotest.test_case "list connectives" `Quick test_list_connectives;
    Alcotest.test_case "support and size" `Quick test_support_and_size;
    Alcotest.test_case "top_var" `Quick test_top_var;
    Alcotest.test_case "top_var under custom order" `Quick
      test_top_var_respects_order;
    Alcotest.test_case "cube" `Quick test_cube;
    Alcotest.test_case "sat_cubes limit" `Quick test_sat_cubes_limit;
    Alcotest.test_case "parity stays linear" `Quick
      test_parity_bdd_is_linear_size;
    Alcotest.test_case "clear_caches keeps hash consing" `Quick
      test_clear_caches_preserves_results;
    Alcotest.test_case "arena growth and rehash" `Quick test_many_nodes_grow;
    Alcotest.test_case "apply kernel allocation-free" `Quick
      test_apply_allocation_free;
    Alcotest.test_case "sat_count past 1023 variables" `Quick
      test_sat_count_wide;
    Alcotest.test_case "rebuild universe check" `Quick
      test_rebuild_rejects_mismatch;
    Alcotest.test_case "create order validation" `Quick
      test_create_rejects_bad_order;
    Alcotest.test_case "bandnot through the warm cache" `Quick
      test_bandnot_warm_cache;
    Alcotest.test_case "small arenas allocate small memos" `Quick
      test_small_arena_allocation;
    Alcotest.test_case "memo grows mid-apply" `Quick test_memo_grows_mid_apply;
    Alcotest.test_case "warm cache wider than the fork's memo" `Quick
      test_warm_cache_wider_than_fork;
  ]

let () =
  Alcotest.run "bdd"
    [ ("unit", unit_cases); ("properties", qcheck_cases) ]
