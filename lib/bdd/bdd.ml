(* Reduced ordered BDDs with a hash-consing arena per manager.

   Node 0 is the zero terminal, node 1 the one terminal.  Internal nodes
   live in parallel int arrays (level, low, high).  Reduction invariants
   are enforced by [mk]: no node with low = high is created, and the
   unique table guarantees sharing, so handle equality is function
   equality.

   The arena has two tiers.  Handles below [frozen] live in the *frozen*
   tier: immutable parallel arrays plus a read-only unique table and a
   fully precomputed SAT-fraction memo, shared by reference across
   domains ([seal] / [fork]).  Handles at or above [frozen] live in the
   *scratch* tier — the ordinary mutable arena, indexed relative to
   [frozen] — which is private to one domain.  A freshly created manager
   simply has [frozen = 0], so the scratch tier is the whole arena and
   nothing below pays for the split beyond one branch in the accessors.

   Performance notes.  Every Difference Propagation rule bottoms out in
   [apply]/[bnot]/[ite], so the cost of a sweep is the cost of one apply
   step times a step count the algorithm fixes; the layout below exists
   to keep that per-step constant small.

   - Unique tables.  The scratch unique table is a custom
     open-addressing (linear probing) table over (level, low, high)
     triples — exact, resized at 2/3 load.  The frozen tier gets its own
     table built once at [seal] (load <= 1/2, probed first by [mk]
     whenever both children are frozen — frozen nodes have frozen
     children, so the probe is exact).  Probe chains are short (about
     1.4 slots per [mk]), so what a probe costs is memory traffic, not
     clustering.
   - Closure-free probes.  The probe loops are top-level recursive
     functions that take their context as arguments.  A local [let rec
     probe] capturing the manager and the triple is a heap-allocated
     closure on every call (seven words per [mk], nearly all of a
     sweep's minor-heap traffic); as written, a cache miss that creates
     a node allocates nothing on the OCaml heap.  Array growth and
     rehashing go straight to the major heap.
   - One-line memo entries.  The binary-operation/negation cache and
     the ite cache are direct-mapped and lossy (collisions overwrite),
     which bounds memory and keeps lookups branch-cheap; a lost entry
     only costs recomputation.  Each table is one flat [int array] with
     an entry's fields side by side — op: key1, key2, result, generation
     at stride [op_stride]; ite: f, g, h, result, generation at stride
     [ite_stride]; the warm cache drops the generation — so a lookup
     touches one cache line (rarely two) where parallel per-field arrays
     touched one per field.  Most lookups miss (about 9% hit on c432),
     so this is paid on nearly every step.
   - Memo tables sized to the arena.  The op memo has one entry per
     unique-table slot, at least 2^16 and at most 2^19
     ([op_memo_entries]; the ite memo's 2^14 cap lies below that
     floor).  [rehash] doubles it with the table, keeping its live
     entries; [seal] and [fork] size it from the scratch table they
     make.  So a c17-sized manager allocates a 2 MB memo that stays
     cache-resident, and c1908's sweep stops recomputing entries a
     fixed 2^18-entry memo lost.  A memo's size changes only how many
     apply steps a sweep takes: never a node, a handle or the count
     of fresh allocations a budget classifies by.
   - Op codes.  An op-cache key1 packs the first operand with a 3-bit
     op code ([(a lsl 3) lor op]): 2 AND, 3 OR and 4 XOR, commutative,
     stored in [a <= b] order; 5 NOT, with key2 = 0; 6 AND-NOT
     ([a] and not [b]), which is not commutative and is stored as
     given.  AND-NOT forms [a.b'] without building [b'] first, which
     is what the OR difference rule needs on every fault.

   Epochs add a third, short-lived region on top of the scratch tier: a
   watermark recorded by [open_epoch] under which every later allocation
   falls.  [close_epoch] reclaims the whole region wholesale — survivors
   reachable from the registered (and explicitly passed) root arrays are
   tenured by copy down to the watermark, everything else is dropped by
   resetting [next] — so a per-fault caller pays O(region) per close
   instead of a periodic O(live arena) mark-sweep-compact.

   The op/ite caches are invalidated by bumping a generation counter
   rather than refilling the tables: a flush is O(1), which is what
   makes per-epoch invalidation affordable on tiny faults. *)

type t = int

(* Read-only remnant of the apply/ite memo tables captured at [seal]
   time: every entry references only frozen handles, so forked managers
   share it by reference and consult it before their private (cold)
   caches.  Same layout as the private caches minus the generation:
   [w_op] holds key1, key2, result at stride [warm_op_stride], [w_ite]
   f, g, h, result at stride [warm_ite_stride].  [w_op] has as many
   entries as the sealed manager's op memo had, so it carries its own
   mask: a fork's private memo may be smaller or larger. *)
type warm_cache = { w_op : int array; w_op_mask : int; w_ite : int array }

type manager = {
  n_vars : int;
  level_var : int array; (* level -> variable *)
  var_level : int array; (* variable -> level *)
  (* frozen tier: immutable after [seal]; shared by reference across
     [fork]ed managers, so nothing here may ever be written in place —
     [seal] replaces the arrays wholesale instead. *)
  mutable frozen : int; (* handles < frozen are frozen; 0 = no snapshot *)
  mutable fz_level : int array;
  mutable fz_low : int array;
  mutable fz_high : int array;
  mutable fz_sat : float array; (* precomputed for every frozen node *)
  mutable fz_table : int array; (* open addressing, -1 = empty *)
  mutable fz_mask : int;
  mutable sealed : bool; (* sealed managers refuse fresh allocations *)
  (* scratch tier: arrays indexed by [handle - frozen] *)
  mutable level : int array; (* node -> level (terminals: max_int) *)
  mutable low : int array;
  mutable high : int array;
  mutable next : int; (* next free *absolute* node index *)
  (* scratch unique table: open addressing, slot stores an absolute
     handle or -1 *)
  mutable table : int array;
  mutable table_mask : int;
  mutable table_count : int;
  (* direct-mapped operation caches, one flat array each (layout in the
     header).  An entry is valid only when its generation stamp equals
     [cache_gen]; [clear_caches] bumps the counter instead of refilling
     the tables, so flushes are O(1).  The op memo follows the unique
     table's size ([op_memo_entries]); [op_mask] is its entry count
     minus one. *)
  mutable op_cache : int array; (* key1 = packed (a, op), key2 = b (0 for not) *)
  mutable op_mask : int;
  ite_cache : int array;
  mutable cache_gen : int;
  (* warm cache: shared by reference across forks, never written after
     [seal] builds it.  [warm_hits] is fork-private accounting. *)
  mutable warm : warm_cache option;
  mutable warm_hits : int;
  (* epoch region: absolute watermark of the open epoch, -1 when none.
     [epoch_resets] counts closes, [tenured_total] survivors copied
     down across all closes. *)
  mutable epoch_mark : int;
  mutable epoch_resets : int;
  mutable tenured_total : int;
  (* lifetime profiler: when [profile] is set, every scratch allocation
     is stamped with the logical clock ([steps], i.e. apply entries) in
     [birth]; reclamation ([collect] / [close_epoch]) observes the death
     and banks the lifetime into log2 [lifetime_hist] buckets.  All
     stamps are logical, so the histogram is deterministic for a fixed
     operation sequence. *)
  mutable profile : bool;
  mutable birth : int array; (* scratch-relative, like [sat_memo] *)
  lifetime_hist : int array;
  mutable death_count : int;
  (* manager-resident statistics memos.  A node's function never
     changes, so its SAT fraction is memoised permanently (NaN = unset;
     scratch-relative index, the frozen tier has [fz_sat]); size/support
     walks stamp nodes with a generation counter instead of allocating a
     visited table.  [visit_stamp] is absolute-indexed and spans both
     tiers (length >= frozen + scratch capacity). *)
  mutable sat_memo : float array;
  mutable visit_stamp : int array;
  level_stamp : int array;
  mutable stat_gen : int;
  (* allocation budget for the current computation window: [mk] refuses
     to allocate a fresh node once [budget_used] reaches [budget_limit]
     (max_int = no window open).  Raising *before* the allocation keeps
     the arena consistent, so the manager stays fully usable after a
     blown budget. *)
  mutable budget_limit : int;
  mutable budget_used : int;
  (* wall-clock deadline for the current computation window: [mk] polls
     the clock every [deadline_poll_mask + 1] calls while a window is
     open ([deadline_at] < infinity) and raises once it has passed.
     Like the budget, the raise happens before any allocation, so the
     arena stays consistent. *)
  mutable deadline_at : float; (* absolute target; infinity = no window *)
  mutable deadline_started : float;
  mutable deadline_window_ms : float;
  mutable deadline_poll : int;
  (* handle arrays owned by clients (good-function tables, scratch
     deltas): [collect] treats every entry as a GC root and rewrites it
     in place with the node's post-compaction index. *)
  mutable registered : (int * int array) list;
  mutable next_registration : int;
  (* instrumentation: [steps] counts [mk] entries (cache misses of the
     apply layer — a deterministic, cachegrind-style work metric for a
     fixed operation sequence), [allocated_total] counts fresh node
     allocations over the manager's whole life (collections do not
     subtract), [scratch_peak] the high-water mark of live scratch
     nodes. *)
  mutable steps : int;
  mutable allocated_total : int;
  mutable scratch_peak : int;
}

exception Variable_out_of_range of int

exception Budget_exceeded of { nodes : int; budget : int }

exception Deadline_exceeded of { elapsed_ms : float; deadline_ms : float }

exception Sealed_manager

let lifetime_buckets = 48

let terminal_level = max_int
let op_and = 2
let op_or = 3
let op_xor = 4
let op_not = 5
let op_andnot = 6

(* Memo sizing: a manager's op memo has one entry per unique-table
   slot, clamped to [memo_floor, op_memo_cap].  Measured with the
   static@1 sweeps of [bench perf] and the benchmark's sweep-c1908
   workload on a 2-core x86-64 machine:
   - floor 2^16: c95 takes 112,060 apply steps (2^15: 114,836; 2^12:
     117,918, past [-perf-gate]'s 10% bound on the 104,930 it took
     with a fixed 2^18-entry memo), and a c17-sized manager's memo is
     2 MB, not 8 MB;
   - cap 2^19: c1908's sweep falls from 136.6M steps at 2^18 to 98.7M
     (2^20: 89.5M, 2^22: 87.4M), but at 2^20 its peak RSS reached
     286 MB, past the benchmark's 20% bound.
   The ite memo obeys the same rule under a 2^14 cap, which lies below
   the floor, so it keeps 2^14 entries ([ite] serves [compose] and the
   tests, never a sweep). *)
let memo_floor = 1 lsl 16
let op_memo_cap = 1 lsl 19
let ite_cache_size = 1 lsl 14

let op_memo_entries slots = max memo_floor (min op_memo_cap slots)

(* Words per memo entry; field offsets are spelled out at each use. *)
let op_stride = 4 (* key1, key2, result, gen *)
let ite_stride = 5 (* f, g, h, result, gen *)
let warm_op_stride = 3 (* key1, key2, result *)
let warm_ite_stride = 4 (* f, g, h, result *)

let scratch_cap = 1024

(* A plain manager's unique-table slots. *)
let initial_table_size = 4096

(* Scratch-tier starting capacity over a frozen snapshot.  Apply
   scratch scales with the good functions it operates on, so a fixed
   1024-slot start made every fork replay the same ladder of
   grow-and-rehash doublings on its first hot fault — a per-domain
   cold-start cost that surfaced as [apply_steps]/allocation noise in
   the sweep statistics.  A quarter of the frozen occupancy (floored at
   [scratch_cap]) absorbs a typical fault's intermediates without a
   single doubling while keeping per-domain memory a fraction of the
   shared snapshot's. *)
let scratch_size_for frozen = max scratch_cap (frozen / 4)

(* Matching unique-table start: the smallest power of two giving the
   pre-sized scratch tier a load factor under 1/2, never below the
   [initial_table_size] a plain manager starts with. *)
let scratch_table_size cap =
  let size = ref initial_table_size in
  while !size < 2 * cap do
    size := !size * 2
  done;
  !size

let create ?order n_vars =
  if n_vars < 0 then invalid_arg "Bdd.create: negative variable count";
  let level_var =
    match order with
    | None -> Array.init n_vars (fun i -> i)
    | Some o ->
      if Array.length o <> n_vars then
        invalid_arg "Bdd.create: order length mismatch";
      let seen = Array.make n_vars false in
      Array.iter
        (fun v ->
          if v < 0 || v >= n_vars || seen.(v) then
            invalid_arg "Bdd.create: order is not a permutation";
          seen.(v) <- true)
        o;
      Array.copy o
  in
  let var_level = Array.make (max n_vars 1) 0 in
  Array.iteri (fun lvl v -> var_level.(v) <- lvl) level_var;
  let cap = scratch_cap in
  let level = Array.make cap 0 in
  level.(0) <- terminal_level;
  level.(1) <- terminal_level;
  let entries = op_memo_entries initial_table_size in
  {
    n_vars;
    level_var;
    var_level;
    frozen = 0;
    fz_level = [||];
    fz_low = [||];
    fz_high = [||];
    fz_sat = [||];
    fz_table = [| -1 |];
    fz_mask = 0;
    sealed = false;
    level;
    low = Array.make cap 0;
    high = Array.make cap 0;
    next = 2;
    table = Array.make initial_table_size (-1);
    table_mask = initial_table_size - 1;
    table_count = 0;
    op_cache = Array.make (entries * op_stride) (-1);
    op_mask = entries - 1;
    ite_cache = Array.make (ite_cache_size * ite_stride) (-1);
    cache_gen = 0;
    warm = None;
    warm_hits = 0;
    epoch_mark = -1;
    epoch_resets = 0;
    tenured_total = 0;
    profile = false;
    birth = [||];
    lifetime_hist = Array.make lifetime_buckets 0;
    death_count = 0;
    sat_memo = Array.make cap Float.nan;
    visit_stamp = Array.make cap 0;
    level_stamp = Array.make (max n_vars 1) 0;
    stat_gen = 0;
    budget_limit = max_int;
    budget_used = 0;
    deadline_at = infinity;
    deadline_started = 0.0;
    deadline_window_ms = 0.0;
    deadline_poll = 0;
    registered = [];
    next_registration = 0;
    steps = 0;
    allocated_total = 0;
    scratch_peak = 0;
  }

let num_vars m = m.n_vars

let level_of_var m v =
  if v < 0 || v >= m.n_vars then raise (Variable_out_of_range v);
  m.var_level.(v)

let var_at_level m lvl =
  if lvl < 0 || lvl >= m.n_vars then raise (Variable_out_of_range lvl);
  m.level_var.(lvl)

let allocated_nodes m = m.next
let frozen_nodes m = m.frozen
let scratch_nodes m = m.next - m.frozen
let scratch_peak m = max m.scratch_peak (m.next - m.frozen)
let apply_steps m = m.steps
let nodes_allocated m = m.allocated_total
let is_sealed m = m.sealed
let warm_cache_hits m = m.warm_hits
let memo_entries m = m.op_mask + 1
let epoch_resets m = m.epoch_resets
let tenured_nodes m = m.tenured_total
let epoch_open m = m.epoch_mark >= 0

(* Tier-dispatching node accessors — the only way node fields are read. *)
let[@inline] node_level m n =
  if n < m.frozen then m.fz_level.(n) else m.level.(n - m.frozen)

let[@inline] node_low m n =
  if n < m.frozen then m.fz_low.(n) else m.low.(n - m.frozen)

let[@inline] node_high m n =
  if n < m.frozen then m.fz_high.(n) else m.high.(n - m.frozen)

(* O(1): entries stamped with an older generation simply stop matching.
   The counter never wraps in practice (63-bit, bumped at most once per
   collection / epoch close). *)
let clear_caches m = m.cache_gen <- m.cache_gen + 1

let with_budget m ~budget f =
  if budget < 0 then invalid_arg "Bdd.with_budget: negative budget";
  let saved_limit = m.budget_limit and saved_used = m.budget_used in
  m.budget_limit <- budget;
  m.budget_used <- 0;
  Fun.protect
    ~finally:(fun () ->
      (* Inner allocations also count against an enclosing window. *)
      let inner = m.budget_used in
      m.budget_limit <- saved_limit;
      m.budget_used <- saved_used + inner)
    f

(* How many [mk] calls between clock reads while a deadline window is
   open.  Small enough that a wedged apply is interrupted within
   microseconds of work, large enough that gettimeofday stays invisible
   in the hot loop. *)
let deadline_poll_mask = 255

(* Slow path of [mk]'s deadline check, taken only while a window is
   open: [mk] tests [deadline_at < infinity] itself, so the common
   no-window case costs one compare and no call. *)
let[@inline never] poll_deadline m =
  m.deadline_poll <- m.deadline_poll + 1;
  if m.deadline_poll land deadline_poll_mask = 0 then begin
    let now = Unix.gettimeofday () in
    if now >= m.deadline_at then
      raise
        (Deadline_exceeded
           {
             elapsed_ms = (now -. m.deadline_started) *. 1000.0;
             deadline_ms = m.deadline_window_ms;
           })
  end

let with_deadline m ~deadline_ms f =
  if not (deadline_ms > 0.0) then
    invalid_arg "Bdd.with_deadline: non-positive deadline";
  let saved_at = m.deadline_at
  and saved_started = m.deadline_started
  and saved_ms = m.deadline_window_ms in
  let now = Unix.gettimeofday () in
  let target = now +. (deadline_ms /. 1000.0) in
  (* An inner window can only tighten the enclosing one; when the outer
     deadline is nearer, the raise keeps reporting the outer window. *)
  if target < m.deadline_at then begin
    m.deadline_at <- target;
    m.deadline_started <- now;
    m.deadline_window_ms <- deadline_ms
  end;
  Fun.protect
    ~finally:(fun () ->
      m.deadline_at <- saved_at;
      m.deadline_started <- saved_started;
      m.deadline_window_ms <- saved_ms)
    f

let zero _ = 0
let one _ = 1
let is_zero _ f = f = 0
let is_one _ f = f = 1
let is_const _ f = f < 2
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let hash (a : t) = a

(* Knuth-style multiplicative mixing of a packed triple. *)
let[@inline] triple_hash a b c =
  let h = (a * 0x9E3779B1) lxor (b * 0x85EBCA77) lxor (c * 0xC2B2AE3D) in
  let h = h lxor (h lsr 15) in
  h land max_int

let grow_nodes m =
  let cap = Array.length m.level in
  let copy a = Array.append a (Array.make cap 0) in
  m.level <- copy m.level;
  m.low <- copy m.low;
  m.high <- copy m.high;
  m.sat_memo <- Array.append m.sat_memo (Array.make cap Float.nan);
  if m.profile then m.birth <- copy m.birth;
  (* visit stamps are absolute-indexed; keep length = frozen + capacity *)
  m.visit_stamp <- copy m.visit_stamp

(* The probe loops below are top-level functions over explicit
   arguments, never local closures: see "Closure-free probes" in the
   header.  Each starts at slot [i] and steps linearly under [mask]. *)

(* First empty slot of [table]'s chain from [i] (either tier's table). *)
let rec free_slot table mask i =
  if table.(i) < 0 then i else free_slot table mask ((i + 1) land mask)

(* The scratch-table slot holding the node (lvl, lo, hi), or the empty
   slot that ends its chain. *)
let rec scratch_slot m mask i lvl lo hi =
  let n = m.table.(i) in
  if n < 0 then i
  else
    let s = n - m.frozen in
    if m.level.(s) = lvl && m.low.(s) = lo && m.high.(s) = hi then i
    else scratch_slot m mask ((i + 1) land mask) lvl lo hi

(* The frozen-table slot holding (lvl, lo, hi), or the empty slot that
   ends its chain. *)
let rec frozen_slot m mask i lvl lo hi =
  let n = m.fz_table.(i) in
  if n < 0 then i
  else if m.fz_level.(n) = lvl && m.fz_low.(n) = lo && m.fz_high.(n) = hi
  then i
  else frozen_slot m mask ((i + 1) land mask) lvl lo hi

(* Grow the op memo to [op_memo_entries slots] entries, keeping every
   live entry.  The entry count only ever doubles here, and doubling
   the mask sends the entry in slot i to slot i or i + S, so no two
   live entries meet: the migration is lossless. *)
let grow_op_memo m slots =
  let entries = op_memo_entries slots in
  if entries > m.op_mask + 1 then begin
    let old = m.op_cache and mask = entries - 1 in
    let c = Array.make (entries * op_stride) (-1) in
    for slot = 0 to m.op_mask do
      let e = slot * op_stride in
      if old.(e + 3) = m.cache_gen && old.(e) >= 0 then begin
        let key = old.(e) and b = old.(e + 1) in
        let home = triple_hash (key land 7) (key lsr 3) b land mask in
        Array.blit old e c (home * op_stride) op_stride
      end
    done;
    m.op_cache <- c;
    m.op_mask <- mask
  end

let rec rehash m =
  let old = m.table in
  let size = (m.table_mask + 1) * 2 in
  m.table <- Array.make size (-1);
  m.table_mask <- size - 1;
  m.table_count <- 0;
  grow_op_memo m size;
  for i = 0 to Array.length old - 1 do
    if old.(i) >= 0 then insert_node m old.(i)
  done

and insert_node m n =
  let mask = m.table_mask in
  let s = n - m.frozen in
  let h = triple_hash m.level.(s) m.low.(s) m.high.(s) land mask in
  m.table.(free_slot m.table mask h) <- n;
  m.table_count <- m.table_count + 1;
  if m.table_count * 3 > (mask + 1) * 2 then rehash m

(* A fresh scratch node (lvl, lo, hi) in the empty table slot [i] its
   probe ended on.  Every refusal raises before anything is written, so
   the arena stays consistent. *)
let scratch_alloc m mask i lvl lo hi =
  if m.sealed then raise Sealed_manager;
  if m.budget_used >= m.budget_limit then
    raise (Budget_exceeded { nodes = m.budget_used; budget = m.budget_limit });
  m.budget_used <- m.budget_used + 1;
  if m.next - m.frozen >= Array.length m.level then grow_nodes m;
  let fresh = m.next in
  m.next <- fresh + 1;
  m.allocated_total <- m.allocated_total + 1;
  let s = fresh - m.frozen in
  m.level.(s) <- lvl;
  m.low.(s) <- lo;
  m.high.(s) <- hi;
  if m.profile then m.birth.(s) <- m.steps;
  m.table.(i) <- fresh;
  m.table_count <- m.table_count + 1;
  if m.table_count * 3 > (mask + 1) * 2 then rehash m;
  fresh

let scratch_mk m lvl lo hi =
  let mask = m.table_mask in
  let i = scratch_slot m mask (triple_hash lvl lo hi land mask) lvl lo hi in
  let n = m.table.(i) in
  if n >= 0 then n else scratch_alloc m mask i lvl lo hi

(* Hash-consing constructor; the single place nodes come to exist.  A
   frozen node's children are themselves frozen, so the shared frozen
   table is consulted exactly when both children are frozen — a miss
   there proves the node is scratch's to find or make. *)
let mk m lvl lo hi =
  if lo = hi then lo
  else begin
    if m.deadline_at < infinity then poll_deadline m;
    m.steps <- m.steps + 1;
    if lo < m.frozen && hi < m.frozen then begin
      let mask = m.fz_mask in
      let n =
        m.fz_table.(frozen_slot m mask (triple_hash lvl lo hi land mask) lvl lo hi)
      in
      if n >= 0 then n else scratch_mk m lvl lo hi
    end
    else scratch_mk m lvl lo hi
  end

(* ------------------------------------------------------------------ *)
(* Mark-sweep garbage collection.

   The scratch tier only ever grows during apply chains, and most of
   that growth is intermediate results nobody holds anymore.  [collect]
   reclaims it without invalidating the client's world: every handle
   stored in a registered array (plus any [roots] arrays passed to the
   call) is treated as live, the scratch survivors are compacted to a
   dense prefix (index order is preserved; remapping is two-phase so it
   holds even when reordering has appended children after their
   parents), and the registered arrays are rewritten in
   place with the new indices.  Frozen nodes are immortal and never
   move, so only handles >= [frozen] are remapped.  The scratch unique
   table is rebuilt over the survivors and the lossy op/ite caches are
   flushed (they hold pre-compaction indices).  SAT-fraction memos move
   with their nodes — a collection never forgets a computed statistic of
   a surviving function. *)

type registration = int

(* Lifetime bookkeeping: a reclaimed node's lifetime is the distance on
   the logical clock between its allocation and the reclamation that
   observed its death (collect or epoch close) — the same oracle an
   offline Merlin-style trace analysis would compute, except the trace
   is folded into log2 buckets on the fly.  Bucket b counts lifetimes
   in [2^(b-1), 2^b) apply steps; bucket 0 is sub-step (allocated and
   dead within one construction burst). *)
let lifetime_bucket lt =
  if lt <= 0 then 0
  else begin
    let b = ref 0 and v = ref lt in
    while !v > 0 do
      incr b;
      v := !v lsr 1
    done;
    min !b (lifetime_buckets - 1)
  end

let record_death m s =
  let lt = m.steps - m.birth.(s) in
  let b = lifetime_bucket lt in
  m.lifetime_hist.(b) <- m.lifetime_hist.(b) + 1;
  m.death_count <- m.death_count + 1

let register m handles =
  let id = m.next_registration in
  m.next_registration <- id + 1;
  m.registered <- (id, handles) :: m.registered;
  id

let unregister m id =
  m.registered <- List.filter (fun (i, _) -> i <> id) m.registered

(* Internal body of [collect]: returns the remap table so [seal] can
   translate pre-collection cache entries into the warm cache. *)
let collect_impl ?(roots = []) m =
  if m.epoch_mark >= 0 then
    invalid_arg "Bdd.collect: an epoch is open (close it first)";
  let base = m.frozen in
  let root_arrays = roots @ List.map snd m.registered in
  let scratch_n = m.next - base in
  m.scratch_peak <- max m.scratch_peak scratch_n;
  let live = Array.make (max scratch_n 1) false in
  (* Terminals sit in scratch only while no snapshot exists. *)
  if base = 0 then begin
    live.(0) <- true;
    live.(1) <- true
  end;
  (* Mark: explicit stack, no recursion on deep diagrams.  Frozen
     handles are implicitly live; the walk stops at the tier boundary
     because frozen nodes only have frozen children. *)
  let stack = ref [] in
  let floor = max base 2 in
  let visit n =
    if n >= floor && not live.(n - base) then begin
      live.(n - base) <- true;
      stack := n :: !stack
    end
  in
  List.iter (Array.iter visit) root_arrays;
  let rec drain () =
    match !stack with
    | [] -> ()
    | n :: rest ->
      stack := rest;
      let s = n - base in
      visit m.low.(s);
      visit m.high.(s);
      drain ()
  in
  drain ();
  (* Compact: survivors slide down to a dense prefix in ascending index
     order.  Index assignment runs first so that children appended after
     their parents (as variable reordering does) are remapped correctly
     too; the in-place move is then safe because a survivor only ever
     moves downwards onto a slot that has already been copied out. *)
  let remap = Array.make (max scratch_n 1) (-1) in
  let start = if base = 0 then 2 else 0 in
  if base = 0 then begin
    remap.(0) <- 0;
    remap.(1) <- 1
  end;
  let count = ref start in
  for s = start to scratch_n - 1 do
    if live.(s) then begin
      remap.(s) <- !count;
      incr count
    end
  done;
  for s = start to scratch_n - 1 do
    if live.(s) then begin
      let fresh = remap.(s) in
      let child c = if c < base then c else base + remap.(c - base) in
      m.level.(fresh) <- m.level.(s);
      m.low.(fresh) <- child m.low.(s);
      m.high.(fresh) <- child m.high.(s);
      m.sat_memo.(fresh) <- m.sat_memo.(s);
      if m.profile then m.birth.(fresh) <- m.birth.(s)
    end
    else if m.profile then record_death m s
  done;
  m.next <- base + !count;
  (* Slots above the live prefix must read as unset for their next
     occupants; stale visit stamps are harmless (generations only move
     forward, so an old stamp never equals a fresh one). *)
  Array.fill m.sat_memo !count (Array.length m.sat_memo - !count) Float.nan;
  Array.fill m.table 0 (Array.length m.table) (-1);
  m.table_count <- 0;
  for s = start to !count - 1 do
    insert_node m (base + s)
  done;
  clear_caches m;
  List.iter
    (fun a ->
      Array.iteri
        (fun i h -> if h >= floor then a.(i) <- base + remap.(h - base))
        a)
    root_arrays;
  (base, floor, remap)

let collect ?roots m = ignore (collect_impl ?roots m : int * int * int array)

(* ------------------------------------------------------------------ *)
(* Epochs: region-scoped scratch reclamation.

   [open_epoch] records the current allocation watermark; [close_epoch]
   reclaims every node allocated since wholesale, tenuring the survivors
   (nodes reachable from the registered arrays plus any [?survivors]
   arrays) by copying them down to the watermark.  Nodes below the
   watermark — good functions, earlier tenured survivors — are never
   touched, walked or remapped, so the cost of a close is O(nodes the
   epoch allocated), not O(live arena).

   The unique table is maintained incrementally: every region node is
   deleted (backward-shift deletion keeps linear-probe chains intact)
   and the tenured copies are re-inserted under their new handles.  When
   the region rivals the table occupancy a full rebuild is cheaper and
   is used instead.  Op/ite caches may hold region handles, so a close
   that reclaimed anything bumps the cache generation (O(1)).

   Epochs do not compose with whole-arena restructuring: [collect],
   [sift] and [seal] raise while an epoch is open — closing first is the
   caller's explicit, loud decision. *)

type epoch = { mutable e_mark : int (* -1 once closed *) }

let open_epoch m =
  if m.sealed then invalid_arg "Bdd.open_epoch: manager is sealed";
  if m.epoch_mark >= 0 then
    invalid_arg "Bdd.open_epoch: an epoch is already open";
  m.epoch_mark <- m.next;
  { e_mark = m.next }

let epoch_nodes m =
  if m.epoch_mark < 0 then 0 else m.next - m.epoch_mark

(* Remove one node from the scratch unique table: find its slot by
   probing from its triple's home, then backward-shift (Knuth 6.4R) so
   that every remaining entry stays reachable from its own home slot. *)
let table_delete m n =
  let mask = m.table_mask in
  let s = n - m.frozen in
  let home = triple_hash m.level.(s) m.low.(s) m.high.(s) land mask in
  let i = ref home in
  while m.table.(!i) <> n do
    i := (!i + 1) land mask
  done;
  let j = ref !i in
  let moving = ref true in
  while !moving do
    m.table.(!i) <- -1;
    let settled = ref false in
    while not !settled do
      j := (!j + 1) land mask;
      let e = m.table.(!j) in
      if e < 0 then begin
        settled := true;
        moving := false
      end
      else begin
        let es = e - m.frozen in
        let k = triple_hash m.level.(es) m.low.(es) m.high.(es) land mask in
        (* The entry may stay iff its home lies cyclically in (i, j]. *)
        let stays =
          if !i < !j then !i < k && k <= !j else k <= !j || k > !i
        in
        if not stays then settled := true
      end
    done;
    if !moving then begin
      m.table.(!i) <- m.table.(!j);
      i := !j
    end
  done;
  m.table_count <- m.table_count - 1

let close_epoch ?(survivors = []) m e =
  if e.e_mark < 0 then invalid_arg "Bdd.close_epoch: epoch already closed";
  if m.epoch_mark <> e.e_mark then
    invalid_arg "Bdd.close_epoch: not this manager's open epoch";
  let mark = e.e_mark in
  e.e_mark <- -1;
  m.epoch_mark <- -1;
  let region = m.next - mark in
  if region > 0 then begin
    m.scratch_peak <- max m.scratch_peak (m.next - m.frozen);
    let base = m.frozen in
    let mstart = mark - base in
    let root_arrays = survivors @ List.map snd m.registered in
    (* Mark survivors: the walk never descends below the watermark —
       a region node's sub-watermark children are immortal here. *)
    let live = Array.make region false in
    let stack = ref [] in
    let visit n =
      if n >= mark && not live.(n - mark) then begin
        live.(n - mark) <- true;
        stack := n :: !stack
      end
    in
    List.iter (Array.iter visit) root_arrays;
    let rec drain () =
      match !stack with
      | [] -> ()
      | n :: rest ->
        stack := rest;
        let s = n - base in
        visit m.low.(s);
        visit m.high.(s);
        drain ()
    in
    drain ();
    (* Every region node leaves the unique table: dead ones for good,
       survivors to re-enter under their tenured handles.  Deleting
       one-by-one costs O(region); once the region rivals the table's
       occupancy, wiping and re-inserting the sub-watermark residents
       is cheaper. *)
    let rebuild_whole = 2 * region >= m.table_count in
    if not rebuild_whole then
      for n = mark to m.next - 1 do
        table_delete m n
      done;
    (* Tenure by copy, two-phase exactly like [collect]: handles are
       assigned first (ascending, so children appended after parents
       still remap), then moved — a survivor only ever slides down onto
       a slot already copied out. *)
    let remap = Array.make region (-1) in
    let count = ref 0 in
    for r = 0 to region - 1 do
      if live.(r) then begin
        remap.(r) <- !count;
        incr count
      end
    done;
    for r = 0 to region - 1 do
      if live.(r) then begin
        let fresh = mstart + remap.(r) in
        let s = mstart + r in
        let child c = if c < mark then c else mark + remap.(c - mark) in
        m.level.(fresh) <- m.level.(s);
        m.low.(fresh) <- child m.low.(s);
        m.high.(fresh) <- child m.high.(s);
        m.sat_memo.(fresh) <- m.sat_memo.(s);
        if m.profile then m.birth.(fresh) <- m.birth.(s)
      end
      else if m.profile then record_death m (mstart + r)
    done;
    let old_top = m.next - base in
    m.next <- mark + !count;
    Array.fill m.sat_memo (mstart + !count) (old_top - (mstart + !count))
      Float.nan;
    if rebuild_whole then begin
      Array.fill m.table 0 (Array.length m.table) (-1);
      m.table_count <- 0;
      let floor = if base = 0 then 2 else base in
      for n = floor to m.next - 1 do
        insert_node m n
      done
    end
    else
      for n = mark to m.next - 1 do
        insert_node m n
      done;
    clear_caches m;
    (* Root arrays now name tenured handles; sub-watermark entries are
       untouched by construction. *)
    List.iter
      (fun a ->
        Array.iteri
          (fun i h -> if h >= mark then a.(i) <- mark + remap.(h - mark))
          a)
      root_arrays;
    m.tenured_total <- m.tenured_total + !count
  end;
  m.epoch_resets <- m.epoch_resets + 1

(* ------------------------------------------------------------------ *)
(* Snapshots: seal / fork / unseal.

   [seal] migrates every live scratch node into the frozen tier and
   marks the manager sealed; [fork] then clones the manager record with
   a fresh, empty, private scratch tier while sharing the frozen arrays
   by reference.  Forked managers read the snapshot without any
   synchronisation: nothing writes the frozen arrays after the seal
   (SAT fractions are precomputed for every frozen node at seal time
   precisely so no lazy memo write hits shared memory), and
   [Domain.spawn] provides the happens-before edge that makes the
   pre-spawn seal visible to worker domains. *)

let seal m =
  if m.sealed then invalid_arg "Bdd.seal: manager is already sealed";
  if m.epoch_mark >= 0 then
    invalid_arg "Bdd.seal: an epoch is open (close it first)";
  (* The op/ite caches hold the final apply-memo entries of the build
     phase under pre-collection handles.  Cache flushes are generation
     bumps, so the entries themselves survive the collect below — after
     it, every entry whose operands and result all survived is remapped
     and kept as the read-only warm cache that forks share: a fork's
     first fault starts with the build's memo instead of a cold cache. *)
  let gen0 = m.cache_gen in
  (* Compaction first: registered arrays end up holding the final
     absolute handles, which the migration below preserves. *)
  let cbase, cfloor, remap = collect_impl m in
  let alive h =
    if h < cfloor then h
    else
      let r = remap.(h - cbase) in
      if r < 0 then -1 else cbase + r
  in
  let w_op_mask = m.op_mask in
  let w_op = Array.make ((w_op_mask + 1) * warm_op_stride) (-1) in
  let w_ite = Array.make (ite_cache_size * warm_ite_stride) (-1) in
  let c = m.op_cache in
  for slot = 0 to w_op_mask do
    let e = slot * op_stride in
    if c.(e + 3) = gen0 && c.(e) >= 0 then begin
      let op = c.(e) land 7 in
      let a = alive (c.(e) lsr 3) in
      let b = alive c.(e + 1) in
      let r = alive c.(e + 2) in
      if a >= 0 && b >= 0 && r >= 0 then begin
        let w = (triple_hash op a b land w_op_mask) * warm_op_stride in
        w_op.(w) <- (a lsl 3) lor op;
        w_op.(w + 1) <- b;
        w_op.(w + 2) <- r
      end
    end
  done;
  let c = m.ite_cache in
  for slot = 0 to ite_cache_size - 1 do
    let e = slot * ite_stride in
    if c.(e + 4) = gen0 && c.(e) >= 0 then begin
      let f = alive c.(e) in
      let g = alive c.(e + 1) in
      let h = alive c.(e + 2) in
      let r = alive c.(e + 3) in
      if f >= 0 && g >= 0 && h >= 0 && r >= 0 then begin
        let w = (triple_hash f g h land (ite_cache_size - 1)) * warm_ite_stride in
        w_ite.(w) <- f;
        w_ite.(w + 1) <- g;
        w_ite.(w + 2) <- h;
        w_ite.(w + 3) <- r
      end
    end
  done;
  m.warm <- Some { w_op; w_op_mask; w_ite };
  let base = m.frozen in
  let nf = m.next in
  if nf > base || base = 0 then begin
    let fz_level = Array.make nf 0 in
    let fz_low = Array.make nf 0 in
    let fz_high = Array.make nf 0 in
    let fz_sat = Array.make nf Float.nan in
    Array.blit m.fz_level 0 fz_level 0 base;
    Array.blit m.fz_low 0 fz_low 0 base;
    Array.blit m.fz_high 0 fz_high 0 base;
    Array.blit m.fz_sat 0 fz_sat 0 base;
    for n = base to nf - 1 do
      let s = n - base in
      fz_level.(n) <- m.level.(s);
      fz_low.(n) <- m.low.(s);
      fz_high.(n) <- m.high.(s)
    done;
    fz_sat.(0) <- 0.0;
    if nf > 1 then fz_sat.(1) <- 1.0;
    (* Precompute every frozen SAT fraction.  An explicit stack stands
       in for the recursion of [sat_fraction] (index order is not
       topological once reordering has run), and the per-node
       arithmetic is [sat_fraction]'s own, so the precomputed values
       are bit-identical to what the lazy memo would have produced. *)
    for n = max base 2 to nf - 1 do
      if Float.is_nan fz_sat.(n) then begin
        let stack = ref [ n ] in
        while !stack <> [] do
          match !stack with
          | [] -> ()
          | t :: rest ->
            let sl = fz_sat.(fz_low.(t)) and sh = fz_sat.(fz_high.(t)) in
            if Float.is_nan sl then stack := fz_low.(t) :: !stack
            else if Float.is_nan sh then stack := fz_high.(t) :: !stack
            else begin
              fz_sat.(t) <- 0.5 *. (sl +. sh);
              stack := rest
            end
        done
      end
    done;
    let size = ref 16 in
    while !size < 3 * nf do
      size := !size * 2
    done;
    let fz_table = Array.make !size (-1) in
    let fz_mask = !size - 1 in
    for n = 2 to nf - 1 do
      let h = triple_hash fz_level.(n) fz_low.(n) fz_high.(n) land fz_mask in
      fz_table.(free_slot fz_table fz_mask h) <- n
    done;
    m.fz_level <- fz_level;
    m.fz_low <- fz_low;
    m.fz_high <- fz_high;
    m.fz_sat <- fz_sat;
    m.fz_table <- fz_table;
    m.fz_mask <- fz_mask;
    m.frozen <- nf;
    let cap = scratch_size_for nf in
    m.level <- Array.make cap 0;
    m.low <- Array.make cap 0;
    m.high <- Array.make cap 0;
    m.sat_memo <- Array.make cap Float.nan;
    (* Frozen nodes are immortal: their births leave the profile (they
       show up as the [lp_frozen] live count, not as deaths). *)
    if m.profile then m.birth <- Array.make cap 0;
    m.visit_stamp <- Array.make (nf + cap) 0;
    m.next <- nf;
    let tsize = scratch_table_size cap in
    m.table <- Array.make tsize (-1);
    m.table_mask <- tsize - 1;
    m.table_count <- 0;
    (* The memo follows the new table; its entries moved to the warm
       cache above. *)
    let entries = op_memo_entries tsize in
    if entries <> m.op_mask + 1 then begin
      m.op_cache <- Array.make (entries * op_stride) (-1);
      m.op_mask <- entries - 1
    end;
    clear_caches m
  end;
  m.sealed <- true

let unseal m = m.sealed <- false

let fork m =
  if not m.sealed then invalid_arg "Bdd.fork: manager is not sealed";
  (* Pre-sized from the snapshot it forks over, like [seal]'s own
     scratch tier — see [scratch_size_for] — and the memo follows the
     table. *)
  let cap = scratch_size_for m.frozen in
  let tsize = scratch_table_size cap in
  let entries = op_memo_entries tsize in
  {
    m with
    sealed = false;
    level = Array.make cap 0;
    low = Array.make cap 0;
    high = Array.make cap 0;
    next = m.frozen;
    table = Array.make tsize (-1);
    table_mask = tsize - 1;
    table_count = 0;
    op_cache = Array.make (entries * op_stride) (-1);
    op_mask = entries - 1;
    ite_cache = Array.make (ite_cache_size * ite_stride) (-1);
    cache_gen = 0;
    (* [warm] rides along by reference from the record copy: read-only
       after [seal], so sharing it across domains is free. *)
    warm_hits = 0;
    epoch_mark = -1;
    epoch_resets = 0;
    tenured_total = 0;
    birth = (if m.profile then Array.make cap 0 else [||]);
    lifetime_hist = Array.make lifetime_buckets 0;
    death_count = 0;
    sat_memo = Array.make cap Float.nan;
    visit_stamp = Array.make (m.frozen + cap) 0;
    level_stamp = Array.make (max m.n_vars 1) 0;
    stat_gen = 0;
    budget_limit = max_int;
    budget_used = 0;
    deadline_at = infinity;
    deadline_started = 0.0;
    deadline_window_ms = 0.0;
    deadline_poll = 0;
    registered = [];
    next_registration = 0;
    steps = 0;
    allocated_total = 0;
    scratch_peak = 0;
  }

let var m v =
  let lvl = level_of_var m v in
  mk m lvl 0 1

let nvar m v =
  let lvl = level_of_var m v in
  mk m lvl 1 0

(* Op-memo probe and store for the entry whose unmasked hash is [h]:
   key1 = packed (a, op), key2 = b (0 for negation); see the header for
   the layout.  The slot is [h] under the memo's mask at the time of the
   call: a recursion between probe and store may grow the memo, so the
   store masks [h] afresh rather than reuse the probe's slot. *)
let[@inline] op_entry m h = (h land m.op_mask) * op_stride

let[@inline] op_hit m e key b =
  let c = m.op_cache in
  c.(e) = key && c.(e + 1) = b && c.(e + 3) = m.cache_gen

let[@inline] op_store m h key b r =
  let c = m.op_cache and e = op_entry m h in
  c.(e) <- key;
  c.(e + 1) <- b;
  c.(e + 2) <- r;
  c.(e + 3) <- m.cache_gen

(* The warm cache's result for (key, b), or -1.  Warm entries reference
   only frozen handles, so a hit is the same canonical node the
   recursion would have produced. *)
let[@inline] warm_op m h key b =
  match m.warm with
  | None -> -1
  | Some w ->
    let e = (h land w.w_op_mask) * warm_op_stride in
    if w.w_op.(e) = key && w.w_op.(e + 1) = b then begin
      m.warm_hits <- m.warm_hits + 1;
      w.w_op.(e + 2)
    end
    else -1

let rec bnot m f =
  if f < 2 then 1 - f
  else begin
    let h = triple_hash op_not f 0 in
    let key = (f lsl 3) lor op_not in
    let e = op_entry m h in
    if op_hit m e key 0 then m.op_cache.(e + 2)
    else begin
      let r = warm_op m h key 0 in
      let r =
        if r >= 0 then r
        else
          mk m (node_level m f) (bnot m (node_low m f)) (bnot m (node_high m f))
      in
      op_store m h key 0 r;
      r
    end
  end

(* Generic binary apply.  AND / OR / XOR are commutative and their
   operands are put in [a <= b] order before the cache probe, so both
   argument orders share one entry; AND-NOT ([a] and not [b]) is not,
   and keeps its operands as given. *)
let rec apply m op a b =
  let shortcut =
    match op with
    | 2 ->
      if a = 0 || b = 0 then 0
      else if a = 1 then b
      else if b = 1 then a
      else if a = b then a
      else -1
    | 3 ->
      if a = 1 || b = 1 then 1
      else if a = 0 then b
      else if b = 0 then a
      else if a = b then a
      else -1
    | 6 ->
      if a = 0 || b = 1 || a = b then 0
      else if b = 0 then a
      else if a = 1 then bnot m b
      else -1
    | _ ->
      if a = b then 0
      else if a = 0 then b
      else if b = 0 then a
      else if a = 1 then bnot m b
      else if b = 1 then bnot m a
      else -1
  in
  if shortcut >= 0 then shortcut
  else begin
    let a, b = if a <= b || op = op_andnot then (a, b) else (b, a) in
    let h = triple_hash op a b in
    let key = (a lsl 3) lor op in
    let e = op_entry m h in
    if op_hit m e key b then m.op_cache.(e + 2)
    else begin
      let r = warm_op m h key b in
      let r =
        if r >= 0 then r
        else
          let la = node_level m a and lb = node_level m b in
          let lvl = if la < lb then la else lb in
          let a0, a1 =
            if la = lvl then (node_low m a, node_high m a) else (a, a)
          in
          let b0, b1 =
            if lb = lvl then (node_low m b, node_high m b) else (b, b)
          in
          mk m lvl (apply m op a0 b0) (apply m op a1 b1)
      in
      op_store m h key b r;
      r
    end
  end

let band m a b = apply m op_and a b
let bor m a b = apply m op_or a b
let bxor m a b = apply m op_xor a b
let bandnot m a b = apply m op_andnot a b
let bxnor m a b = bnot m (bxor m a b)
let bnand m a b = bnot m (band m a b)
let bnor m a b = bnot m (bor m a b)
let bimp m a b = bor m (bnot m a) b

let rec ite m f g h =
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else if g = 0 && h = 1 then bnot m f
  else begin
    let slot = triple_hash f g h land (ite_cache_size - 1) in
    let c = m.ite_cache and e = slot * ite_stride in
    if c.(e) = f && c.(e + 1) = g && c.(e + 2) = h && c.(e + 4) = m.cache_gen
    then c.(e + 3)
    else begin
      let r =
        match m.warm with
        | Some w
          when let we = slot * warm_ite_stride in
               w.w_ite.(we) = f && w.w_ite.(we + 1) = g && w.w_ite.(we + 2) = h
          ->
          m.warm_hits <- m.warm_hits + 1;
          w.w_ite.((slot * warm_ite_stride) + 3)
        | _ ->
          let lf = node_level m f
          and lg = node_level m g
          and lh = node_level m h in
          let lvl = min lf (min lg lh) in
          (* Cofactors spelled out rather than via a local helper, which
             would be a closure (and tuples) allocated on every step. *)
          let f0 = if lf = lvl then node_low m f else f
          and f1 = if lf = lvl then node_high m f else f
          and g0 = if lg = lvl then node_low m g else g
          and g1 = if lg = lvl then node_high m g else g
          and h0 = if lh = lvl then node_low m h else h
          and h1 = if lh = lvl then node_high m h else h in
          mk m lvl (ite m f0 g0 h0) (ite m f1 g1 h1)
      in
      c.(e) <- f;
      c.(e + 1) <- g;
      c.(e + 2) <- h;
      c.(e + 3) <- r;
      c.(e + 4) <- m.cache_gen;
      r
    end
  end

let band_list m = List.fold_left (band m) 1
let bor_list m = List.fold_left (bor m) 0
let bxor_list m = List.fold_left (bxor m) 0

let top_var m f = if f < 2 then None else Some m.level_var.(node_level m f)

let restrict m f ~var ~value =
  let lvl = level_of_var m var in
  let memo = Hashtbl.create 64 in
  let rec go f =
    if f < 2 || node_level m f > lvl then f
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
        let r =
          if node_level m f = lvl then
            if value then node_high m f else node_low m f
          else mk m (node_level m f) (go (node_low m f)) (go (node_high m f))
        in
        Hashtbl.add memo f r;
        r
  in
  go f

let cofactors m f v =
  (restrict m f ~var:v ~value:false, restrict m f ~var:v ~value:true)

let compose m f ~var g =
  let f0, f1 = cofactors m f var in
  ite m g f1 f0

let exists m vars f =
  let quantify acc v =
    let a0, a1 = cofactors m acc v in
    bor m a0 a1
  in
  List.fold_left quantify f vars

let forall m vars f =
  let quantify acc v =
    let a0, a1 = cofactors m acc v in
    band m a0 a1
  in
  List.fold_left quantify f vars

let fresh_stat_gen m =
  m.stat_gen <- m.stat_gen + 1;
  m.stat_gen

let support m f =
  let gen = fresh_stat_gen m in
  let rec go f =
    if f >= 2 && m.visit_stamp.(f) <> gen then begin
      m.visit_stamp.(f) <- gen;
      m.level_stamp.(node_level m f) <- gen;
      go (node_low m f);
      go (node_high m f)
    end
  in
  go f;
  let acc = ref [] in
  for lvl = m.n_vars - 1 downto 0 do
    if m.level_stamp.(lvl) = gen then acc := m.level_var.(lvl) :: !acc
  done;
  List.sort Stdlib.compare !acc

let size m f =
  let gen = fresh_stat_gen m in
  let count = ref 0 in
  let rec go f =
    if f >= 2 && m.visit_stamp.(f) <> gen then begin
      m.visit_stamp.(f) <- gen;
      incr count;
      go (node_low m f);
      go (node_high m f)
    end
  in
  go f;
  !count

(* Permanent memo: fractions are in [0, 1], so NaN is a free "unset".
   Frozen nodes were all precomputed at [seal] — the lookup there is a
   pure read, which is what makes concurrent forked readers safe. *)
let rec sat_fraction m f =
  if f < m.frozen then m.fz_sat.(f)
  else if f = 0 then 0.0
  else if f = 1 then 1.0
  else
    let s = f - m.frozen in
    let cached = m.sat_memo.(s) in
    if Float.is_nan cached then begin
      let p =
        0.5 *. (sat_fraction m (node_low m f) +. sat_fraction m (node_high m f))
      in
      m.sat_memo.(s) <- p;
      p
    end
    else cached

(* [ldexp], not a product with [2.0 ** n]: that power is infinite from
   n = 1024 up and would turn the zero function's count into NaN.  Below
   that the two agree bit for bit. *)
let sat_count m f = Float.ldexp (sat_fraction m f) m.n_vars

let any_sat m f =
  if f = 0 then None
  else
    let rec go f acc =
      if f = 1 then acc
      else
        let v = m.level_var.(node_level m f) in
        if node_high m f <> 0 then go (node_high m f) ((v, true) :: acc)
        else go (node_low m f) ((v, false) :: acc)
    in
    Some (List.rev (go f []))

let sat_cubes m ?limit f =
  let out = ref [] in
  let count = ref 0 in
  let budget = match limit with None -> max_int | Some n -> n in
  let exception Done in
  let rec go f acc =
    if !count >= budget then raise Done;
    if f = 1 then begin
      out := List.rev acc :: !out;
      incr count
    end
    else if f <> 0 then begin
      let v = m.level_var.(node_level m f) in
      go (node_low m f) ((v, false) :: acc);
      go (node_high m f) ((v, true) :: acc)
    end
  in
  (try go f [] with Done -> ());
  List.rev !out

let eval m f assign =
  let rec go f =
    if f = 0 then false
    else if f = 1 then true
    else if assign m.level_var.(node_level m f) then go (node_high m f)
    else go (node_low m f)
  in
  go f

let of_fun m ~arity fn =
  if arity < 0 || arity > m.n_vars then invalid_arg "Bdd.of_fun: bad arity";
  let args = Array.make arity false in
  (* Expand over variables in level order so intermediate BDDs stay small. *)
  let vars_in_level_order =
    Array.to_list m.level_var |> List.filter (fun v -> v < arity)
  in
  let rec go = function
    | [] -> if fn args then 1 else 0
    | v :: rest ->
      args.(v) <- false;
      let lo = go rest in
      args.(v) <- true;
      let hi = go rest in
      args.(v) <- false;
      mk m m.var_level.(v) lo hi
  in
  go vars_in_level_order

let cube m literals =
  List.fold_left
    (fun acc (v, value) -> band m acc (if value then var m v else nvar m v))
    1 literals

let rebuild ~src ~dst f =
  if num_vars src <> num_vars dst then
    invalid_arg "Bdd.rebuild: variable universes differ";
  let memo = Hashtbl.create 256 in
  let rec go f =
    if f < 2 then f
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
        let v = src.level_var.(node_level src f) in
        let lo = go (node_low src f) in
        let hi = go (node_high src f) in
        let r = ite dst (var dst v) hi lo in
        Hashtbl.add memo f r;
        r
  in
  go f

(* ------------------------------------------------------------------ *)
(* Dynamic variable reordering: Rudell-style sifting.

   Reordering only runs on a plain single-tier arena ([frozen = 0], not
   sealed): the frozen tier is shared read-only across domains, so it
   can never be restructured in place.  The engine therefore computes a
   rescue order on a private side manager and rebuilds under it, rather
   than sifting a snapshot.

   The primitive is an adjacent-level swap.  Writing f = x?h:l for a
   node at level i (x) with cofactors split against the variable y at
   level i+1, the swap rewrites f = y?(x?h1:l1):(x?h0:l0) *in place*:
   the handle keeps denoting the same function, so client handles (and
   memoised SAT fractions, which depend only on the function) stay
   valid across a swap.  Level-i nodes with no level-i+1 child are
   merely relabelled to level i+1; old level-i+1 nodes move to level i.
   Fresh x-nodes are deduplicated through a local table seeded with the
   relabelled ones — no two distinct handles can come to share a
   (level, low, high) triple, because every handle keeps its function
   and distinct handles denote distinct functions.  The global unique
   table is left stale during a sift and rebuilt before returning (on
   every exit path, including a deadline raise), so the apply layer
   must be quiescent while sifting.

   Sifting keeps a reference count per live node, so a swap visits
   only the live nodes of its two levels and reports the change in the
   live size as it goes: old level-i+1 nodes that lose their last
   parent die on the spot instead of being swapped along as garbage.
   The live size of a reduced shared diagram under a given order is
   canonical, so the running count is exactly what a full walk from
   the roots would find after every swap.

   Budget windows are deliberately not charged: sifting is maintenance
   that shrinks the arena, not apply work, and raising [Budget_exceeded]
   mid-swap could strand half-relabelled levels.  Deadlines are honoured
   at swap boundaries, where the arena is structurally consistent. *)

let rebuild_unique_table m =
  Array.fill m.table 0 (Array.length m.table) (-1);
  m.table_count <- 0;
  for n = 2 to m.next - 1 do
    insert_node m n
  done

let reorder_deadline_check m =
  if m.deadline_at < infinity then begin
    let now = Unix.gettimeofday () in
    if now >= m.deadline_at then
      raise
        (Deadline_exceeded
           {
             elapsed_ms = (now -. m.deadline_started) *. 1000.0;
             deadline_ms = m.deadline_window_ms;
           })
  end

(* Reference counts and level buckets for swapping.  [rc.(n)] is the
   number of references that keep node [n] alive: one per live parent
   and one per root entry.  A node whose count reaches 0 is dead: it
   releases its children at once and leaves its bucket, so no later
   swap touches it; its slot stays garbage until the next collection.
   [rc] grows with the node arrays, so it always spans the arena.
   [buckets.(l)] holds the live nodes at level [l] (dead ones deeper
   down may linger until their level is next swapped, which skips
   them). *)
type sifter = { mutable rc : int array; buckets : int list array }

let sifter m =
  { rc = Array.make (Array.length m.level) 0; buckets = Array.make m.n_vars [] }

(* Count every node's references from scratch.  With [~pin] each node
   also holds one reference of its own, so nothing can die: that is how
   [swap_levels] keeps every handle a caller may hold valid. *)
let count_refs m st ~pin root_arrays =
  let rc = st.rc in
  Array.fill rc 0 m.next (if pin then 1 else 0);
  Array.fill st.buckets 0 m.n_vars [];
  let inc n = if n >= 2 then rc.(n) <- rc.(n) + 1 in
  for n = m.next - 1 downto 2 do
    inc m.low.(n);
    inc m.high.(n);
    let lvl = m.level.(n) in
    if lvl < m.n_vars then st.buckets.(lvl) <- n :: st.buckets.(lvl)
  done;
  List.iter (Array.iter inc) root_arrays

(* Swap levels i and i+1 and return the change in the live node count.
   Only live nodes are visited, so a swap costs O(width of the two
   levels).  Each restructured node takes its references to its new
   children before it drops those to its old ones, so a node shared
   with the new children never transiently dies. *)
let swap_core m st i =
  let delta = ref 0 in
  let inc n = if n >= 2 then st.rc.(n) <- st.rc.(n) + 1 in
  let rec dec n =
    if n >= 2 then begin
      let c = st.rc.(n) - 1 in
      st.rc.(n) <- c;
      if c = 0 then begin
        decr delta;
        dec m.low.(n);
        dec m.high.(n)
      end
    end
  in
  let live n = st.rc.(n) > 0 in
  (* (lo, hi) packed into one int, which hashes without allocating;
     node indices stay far below 2^31. *)
  let key lo hi = (lo lsl 31) lor hi in
  let xtab : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let solitary = ref [] and restructured = ref [] in
  List.iter
    (fun x ->
      if live x then begin
        let lo = m.low.(x) and hi = m.high.(x) in
        if m.level.(lo) = i + 1 || m.level.(hi) = i + 1 then
          restructured := x :: !restructured
        else begin
          solitary := x :: !solitary;
          Hashtbl.replace xtab (key lo hi) x
        end
      end)
    st.buckets.(i);
  let solitary = List.rev !solitary
  and restructured = List.rev !restructured in
  let fresh_xs = ref [] in
  (* The level-(i+1) node for (lo, hi), with one reference taken for
     the caller. *)
  let get_x lo hi =
    let n =
      if lo = hi then lo
      else
        match Hashtbl.find_opt xtab (key lo hi) with
        | Some n -> n
        | None ->
          if m.next >= Array.length m.level then begin
            grow_nodes m;
            st.rc <-
              Array.append st.rc
                (Array.make (Array.length m.level - Array.length st.rc) 0)
          end;
          let fresh = m.next in
          m.next <- fresh + 1;
          m.allocated_total <- m.allocated_total + 1;
          m.level.(fresh) <- i + 1;
          m.low.(fresh) <- lo;
          m.high.(fresh) <- hi;
          m.sat_memo.(fresh) <- Float.nan;
          if m.profile then m.birth.(fresh) <- m.steps;
          st.rc.(fresh) <- 0;
          inc lo;
          inc hi;
          incr delta;
          Hashtbl.replace xtab (key lo hi) fresh;
          fresh_xs := fresh :: !fresh_xs;
          fresh
    in
    inc n;
    n
  in
  List.iter
    (fun x ->
      let lo = m.low.(x) and hi = m.high.(x) in
      let lo0, lo1 =
        if m.level.(lo) = i + 1 then (m.low.(lo), m.high.(lo)) else (lo, lo)
      in
      let hi0, hi1 =
        if m.level.(hi) = i + 1 then (m.low.(hi), m.high.(hi)) else (hi, hi)
      in
      let nl = get_x lo0 hi0 in
      let nh = get_x lo1 hi1 in
      m.low.(x) <- nl;
      m.high.(x) <- nh;
      dec lo;
      dec hi)
    restructured;
  let ys = List.filter live st.buckets.(i + 1) in
  List.iter (fun y -> m.level.(y) <- i) ys;
  List.iter (fun x -> m.level.(x) <- i + 1) solitary;
  st.buckets.(i) <- ys @ restructured;
  st.buckets.(i + 1) <- solitary @ List.rev !fresh_xs;
  let a = m.level_var.(i) and b = m.level_var.(i + 1) in
  m.level_var.(i) <- b;
  m.level_var.(i + 1) <- a;
  m.var_level.(a) <- i + 1;
  m.var_level.(b) <- i;
  !delta

let reorder_guard name m =
  if m.sealed then invalid_arg (name ^ ": manager is sealed");
  if m.frozen <> 0 then
    invalid_arg (name ^ ": manager has a frozen tier (reordering needs a plain arena)");
  if m.epoch_mark >= 0 then
    invalid_arg (name ^ ": an epoch is open (close it first)")

let swap_levels m i =
  reorder_guard "Bdd.swap_levels" m;
  if i < 0 || i + 1 >= m.n_vars then
    invalid_arg "Bdd.swap_levels: level out of range";
  let st = sifter m in
  count_refs m st ~pin:true [];
  ignore (swap_core m st i : int);
  rebuild_unique_table m;
  clear_caches m

(* Move variable [v] through every feasible position, keep the best
   live size seen, and settle there.  Called right after a collection,
   so [m.next - 2] is the exact starting size; each swap then reports
   its change to it. *)
let sift_var m st v ~max_growth =
  let n = m.n_vars in
  let size0 = m.next - 2 in
  let size = ref size0 in
  let start = m.var_level.(v) in
  let best = ref size0 and best_pos = ref start in
  let cap =
    max size0 (int_of_float (max_growth *. float_of_int size0))
  in
  let pos = ref start in
  let step_down () =
    size := !size + swap_core m st !pos;
    incr pos
  and step_up () =
    size := !size + swap_core m st (!pos - 1);
    decr pos
  in
  let run step in_range =
    let stop = ref false in
    while (not !stop) && in_range () do
      step ();
      reorder_deadline_check m;
      let s = !size in
      if s < !best then begin
        best := s;
        best_pos := !pos
      end;
      if s > cap then stop := true
    done
  in
  let down () = run step_down (fun () -> !pos < n - 1)
  and up () = run step_up (fun () -> !pos > 0) in
  if n - 1 - start <= start then begin
    down ();
    up ()
  end
  else begin
    up ();
    down ()
  end;
  while !pos < !best_pos do
    step_down ()
  done;
  while !pos > !best_pos do
    step_up ()
  done

let sift ?(roots = []) ?(max_growth = 1.2) ?(max_vars = max_int) m =
  reorder_guard "Bdd.sift" m;
  if not (max_growth >= 1.0) then
    invalid_arg "Bdd.sift: growth cap below 1.0";
  collect ~roots m;
  let size_before = m.next - 2 in
  if m.n_vars <= 1 then (size_before, size_before)
  else begin
    let root_arrays = roots @ List.map snd m.registered in
    let st = sifter m in
    count_refs m st ~pin:false root_arrays;
    (* Widest levels first — the classic schedule, and deterministic
       because the post-collection arena is canonical. *)
    let vars =
      List.init m.n_vars (fun lvl ->
          (List.length st.buckets.(lvl), m.level_var.(lvl)))
      |> List.filter (fun (w, _) -> w > 0)
      |> List.sort (fun (wa, va) (wb, vb) ->
             if wa <> wb then compare wb wa else compare va vb)
      |> List.map snd
    in
    let vars =
      if max_vars >= List.length vars then vars
      else List.filteri (fun i _ -> i < max_vars) vars
    in
    (* Dead nodes keep stale labels (they were not swapped), so every
       exit path — a deadline raise included — collects from the roots,
       which also rebuilds the unique table and flushes the caches. *)
    Fun.protect ~finally:(fun () -> collect ~roots m) (fun () ->
        List.iteri
          (fun k v ->
            if k > 0 then begin
              collect ~roots m;
              count_refs m st ~pin:false root_arrays
            end;
            reorder_deadline_check m;
            sift_var m st v ~max_growth)
          vars);
    (size_before, m.next - 2)
  end

let current_order m = Array.copy m.level_var

(* ------------------------------------------------------------------ *)
(* Lifetime profiling                                                  *)

type lifetime_profile = {
  lp_clock : int;
  lp_deaths : int;
  lp_live : int;
  lp_frozen : int;
  lp_buckets : int array;
}

let set_lifetime_profiling m on =
  if on && not m.profile then begin
    m.profile <- true;
    (* Pre-existing scratch nodes are stamped at the current clock, so
       their eventual lifetimes measure from enablement — enable before
       building for full coverage. *)
    m.birth <- Array.make (Array.length m.level) m.steps
  end
  else if not on then begin
    m.profile <- false;
    m.birth <- [||]
  end

let lifetime_profiling m = m.profile

let lifetime_profile m =
  {
    lp_clock = m.steps;
    lp_deaths = m.death_count;
    lp_live = m.next - m.frozen - (if m.frozen = 0 then 2 else 0);
    lp_frozen = m.frozen;
    lp_buckets = Array.copy m.lifetime_hist;
  }

let check_invariants m f =
  let seen = Hashtbl.create 64 in
  let ok = ref true in
  let rec go f =
    if f >= 2 && not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      let lo = node_low m f and hi = node_high m f in
      if lo = hi then ok := false;
      if lo >= 2 && node_level m lo <= node_level m f then ok := false;
      if hi >= 2 && node_level m hi <= node_level m f then ok := false;
      go lo;
      go hi
    end
  in
  go f;
  !ok

(* Canonicity of the arena itself, through the probes [mk] runs: each
   node must be what a probe for its own triple returns (found, and not
   shadowed by an equal triple earlier in the chain), so no triple is
   held twice; a scratch node with frozen children must miss the frozen
   table; and each table must hold exactly its tier's nodes. *)
let check_arena m =
  let ok = ref true in
  let fmask = m.fz_mask in
  let frozen_find lvl lo hi =
    m.fz_table.(frozen_slot m fmask (triple_hash lvl lo hi land fmask) lvl lo hi)
  in
  for n = 2 to m.frozen - 1 do
    if frozen_find m.fz_level.(n) m.fz_low.(n) m.fz_high.(n) <> n then
      ok := false
  done;
  let floor = max m.frozen 2 in
  let mask = m.table_mask in
  for n = floor to m.next - 1 do
    let s = n - m.frozen in
    let lvl = m.level.(s) and lo = m.low.(s) and hi = m.high.(s) in
    let home = triple_hash lvl lo hi land mask in
    if m.table.(scratch_slot m mask home lvl lo hi) <> n then ok := false;
    if lo < m.frozen && hi < m.frozen && frozen_find lvl lo hi >= 0 then
      ok := false
  done;
  let holds_exactly table lo hi =
    let count = ref 0 and stray = ref false in
    Array.iter
      (fun n ->
        if n >= 0 then begin
          incr count;
          if n < lo || n >= hi then stray := true
        end)
      table;
    (not !stray) && !count = hi - lo
  in
  if m.frozen > 0 && not (holds_exactly m.fz_table 2 m.frozen) then
    ok := false;
  if
    (not (holds_exactly m.table floor m.next))
    || m.table_count <> m.next - floor
  then ok := false;
  !ok

let pp m fmt f =
  let rec go fmt f =
    if f = 0 then Format.fprintf fmt "F"
    else if f = 1 then Format.fprintf fmt "T"
    else
      Format.fprintf fmt "@[<hv 1>(x%d?%a:%a)@]"
        m.level_var.(node_level m f)
        go (node_high m f) go (node_low m f)
  in
  go fmt f

let to_dot m ?var_name ?(title = "bdd") root =
  let name v =
    match var_name with Some f -> f v | None -> Printf.sprintf "x%d" v
  in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "digraph %S {" title;
  line "  rankdir=TB;";
  line "  t0 [label=\"0\", shape=box];";
  line "  t1 [label=\"1\", shape=box];";
  let node_id f = if f < 2 then Printf.sprintf "t%d" f else Printf.sprintf "n%d" f in
  let seen = Hashtbl.create 64 in
  let by_level : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let rec visit f =
    if f >= 2 && not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      let lvl = node_level m f in
      Hashtbl.replace by_level lvl
        (f :: Option.value (Hashtbl.find_opt by_level lvl) ~default:[]);
      line "  n%d [label=%S, shape=circle];" f (name m.level_var.(lvl));
      line "  n%d -> %s [style=dashed];" f (node_id (node_low m f));
      line "  n%d -> %s;" f (node_id (node_high m f));
      visit (node_low m f);
      visit (node_high m f)
    end
  in
  visit root;
  Hashtbl.iter
    (fun _ nodes ->
      line "  { rank=same; %s }"
        (String.concat "; " (List.map node_id nodes)))
    by_level;
  line "}";
  Buffer.contents buf
