(** Digest-keyed LRU cache of resident circuits: elaborated
    {!Circuit.t}s, collapsed fault lists, and warm {!Engine.t}s whose
    good functions are built once and kept across sweeps.  The cache
    is what a resident daemon buys over per-request [dpa] invocations —
    repeat requests for a digest skip elaboration and good-function
    construction.

    Entries are {e pinned} while checked out: BDD managers are
    single-threaded per sweep, so a second concurrent sweep on the same
    digest gets a fresh uncached engine, and eviction never touches a
    pinned entry (the cache runs over capacity rather than reclaim a
    live sweep's arena). *)

type entry = {
  digest : string;
  circuit : Circuit.t;
  faults : Fault.t list;
  faults_arr : Fault.t array;
  engine : Engine.t;
  mutable busy : bool;  (** pinned by a running sweep *)
  mutable stamp : int;
}

type t

val create : capacity:int -> t

val checkout :
  t -> digest:string -> circuit:Circuit.t -> faults:Fault.t list ->
  [ `Cached of entry | `Fresh of entry ]
(** Pin and return the resident entry for [digest]; build a fresh
    uncached one (from [circuit]/[faults], which the caller has already
    elaborated) when the slot is absent or pinned.  [`Cached] entries
    must be returned with {!checkin}; [`Fresh] ones are the caller's to
    drop — though {!checkin} will adopt them into the cache. *)

val resident : t -> string -> bool
(** True when [digest] has an idle (unpinned) resident entry — a sweep
    admitted now would check out a warm engine rather than build a
    fresh one.  Used by the server's cache-aware admission. *)

val checkin : t -> entry -> unit
(** Unpin; adopt fresh entries into the cache, evicting the
    least-recently-used idle entry if over capacity. *)

type stats = {
  resident : int;
  hits : int;
  misses : int;
  evictions : int;
}

val stats : t -> stats
