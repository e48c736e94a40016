(* The resident-circuit cache: elaborated circuits, their collapsed
   fault lists, and warm Engine instances (good functions built once
   and kept across sweeps) keyed by netlist digest.  This is what makes a
   resident daemon worth running — the second analyze of a circuit
   skips elaboration, fault collapsing, and good-function construction
   entirely.

   Entries are pinned while a sweep runs on them ([busy]): a BDD
   manager is single-threaded per sweep, so a concurrent request for
   the same digest with a different settings fingerprint gets a fresh
   uncached engine instead of sharing the hot one, and eviction never
   reclaims an entry mid-sweep.  All calls take the cache's own mutex;
   callers never hold it across a sweep. *)

type entry = {
  digest : string;
  circuit : Circuit.t;
  faults : Fault.t list;
  faults_arr : Fault.t array;
  engine : Engine.t;
  mutable busy : bool;
  mutable stamp : int;  (* last-use tick, for LRU eviction *)
}

type t = {
  capacity : int;
  table : (string, entry) Hashtbl.t;
  mu : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  {
    capacity = max 1 capacity;
    table = Hashtbl.create 16;
    mu = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let evict_one_idle t =
  let victim =
    Hashtbl.fold
      (fun _ e acc ->
        if e.busy then acc
        else
          match acc with
          | Some best when best.stamp <= e.stamp -> acc
          | _ -> Some e)
      t.table None
  in
  match victim with
  | Some e ->
    Hashtbl.remove t.table e.digest;
    t.evictions <- t.evictions + 1
  | None -> ()
  (* every entry busy: run over capacity rather than kill a live sweep *)

let build ~digest ~circuit ~faults =
  let faults_arr = Array.of_list faults in
  let engine = Engine.create circuit in
  { digest; circuit; faults; faults_arr; engine; busy = false; stamp = 0 }

(* [checkout t ~digest ~build_inputs] returns a pinned entry for
   [digest], building (outside any cached slot) when the cached one is
   absent or already pinned.  [`Cached] entries must be released with
   {!checkin}; [`Fresh] ones are the caller's to drop. *)
let checkout t ~digest ~circuit ~faults =
  let cached =
    locked t (fun () ->
        t.tick <- t.tick + 1;
        match Hashtbl.find_opt t.table digest with
        | Some e when not e.busy ->
          e.busy <- true;
          e.stamp <- t.tick;
          t.hits <- t.hits + 1;
          Some e
        | Some _ ->
          (* hot but pinned: count the hit, serve a throwaway engine *)
          t.hits <- t.hits + 1;
          None
        | None ->
          t.misses <- t.misses + 1;
          None)
  in
  match cached with
  | Some e -> `Cached e
  | None -> `Fresh (build ~digest ~circuit ~faults)

(* An entry is worth preferring at admission time when it is resident
   and idle: dequeuing its request next turns a would-be miss (fresh
   engine under a pinned or evicted slot) into a warm-arena hit. *)
let resident t digest =
  locked t (fun () ->
      match Hashtbl.find_opt t.table digest with
      | Some e -> not e.busy
      | None -> false)

let checkin t entry =
  locked t (fun () ->
      entry.busy <- false;
      match Hashtbl.find_opt t.table entry.digest with
      | Some resident when resident == entry -> ()
      | Some _ -> ()  (* digest re-cached by a fresh twin; keep the newer *)
      | None ->
        if Hashtbl.length t.table >= t.capacity then evict_one_idle t;
        if Hashtbl.length t.table < t.capacity then begin
          entry.stamp <- t.tick;
          Hashtbl.add t.table entry.digest entry
        end)

type stats = {
  resident : int;
  hits : int;
  misses : int;
  evictions : int;
}

let stats t =
  locked t (fun () ->
      {
        resident = Hashtbl.length t.table;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
      })
