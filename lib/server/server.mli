(** The resident analysis daemon behind [dpa serve].

    One listener thread, one reader thread per connection, a fixed pool
    of worker threads draining a bounded admission queue.  Analyze
    requests sharing a netlist digest and an options fingerprint
    coalesce into one sweep whose in-order outcome stream fans out to
    every subscriber (late joiners get the already-streamed prefix
    replayed first).  With a state directory configured, sweeps journal
    through lib/core's checkpoint machinery under the journal writer
    lock, so a SIGKILLed daemon restarted on the same directory
    re-serves completed prefixes byte-identically and resumes computing
    from the first missing fault.

    Overload is structured: when the queue is full, new work is
    refused with a [busy] response carrying a retry-after hint derived
    from smoothed sweep wall time — never by unbounded buffering.

    Lock order is [server state > sweep state > connection writer];
    see server.ml for the full discipline. *)

type socket_addr =
  | Unix_socket of string  (** socket file path *)
  | Tcp of string * int  (** host, port; port 0 binds ephemeral *)

type config = {
  socket : socket_addr;
  state_dir : string option;
      (** journal directory; [None] disables durability *)
  workers : int;  (** worker threads; [0] admits but never runs (tests) *)
  queue_capacity : int;  (** admission bound; beyond it requests get [busy] *)
  cache_capacity : int;  (** resident circuits kept warm (LRU) *)
  sweep : Sweep_config.t;
      (** base settings of every sweep.  A request overlays its wire
          fields (budget, deadline, retries, samples); coalescing and
          journal files are keyed on the resulting config's
          {!Sweep_config.fingerprint}. *)
  sync_every : int;  (** journal fsync batch size *)
  verbose : bool;
}

val default_config : socket:socket_addr -> config
(** 2 workers, queue 64, cache 8, {!Sweep_config.default} (one
    domain: every sweep is the sequential loop on the cached engine),
    fsync every 8 outcomes, no state dir. *)

type t

val start : config -> t
(** Bind, listen, spawn the accept loop and worker pool, and return
    immediately.  A Unix socket path with no live listener behind it is
    treated as stale and unlinked; a live one raises [Failure].
    @raise Invalid_argument when {!Sweep_config.validate} rejects
    [config.sweep]. *)

val port : t -> int option
(** The bound TCP port ([Some] only for {!Tcp} sockets) — lets tests
    bind port 0 and discover the ephemeral port. *)

val request_stop : t -> unit
(** Begin a graceful drain: stop accepting connections and admitting
    work, let queued and in-flight sweeps complete and stream out, then
    shut down.  One atomic store, safe to call from a SIGTERM/SIGINT
    handler. *)

val wait : t -> unit
(** Block until the drain completes: joins the accept loop and workers,
    closes every connection, removes the socket file. *)

val stop : t -> unit
(** {!request_stop} then {!wait}. *)
