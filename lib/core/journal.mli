(** JSON-lines sweep checkpoints: crash-durable {!Engine.outcome}
    journals keyed by a circuit + fault-list digest.

    A journal file is one header line

    {v {"journal":"dpa-sweep","version":3,"digest":"<md5hex>","faults":N} v}

    followed by one flat JSON object per completed fault, appended in
    completion order and fsync'd in batches.  Files are append-only, so
    a SIGKILL mid-sweep can at worst tear the final line; {!load}
    tolerates exactly that (it stops at the first unparseable line and
    keeps everything before it) while rejecting journals written for a
    different circuit or fault list.  Floats are serialized as ["%h"]
    hex-float strings, which [float_of_string] restores bit-exactly —
    the property that makes a killed-and-resumed sweep's final report
    byte-identical to an uninterrupted one. *)

val digest : Circuit.t -> Fault.t list -> string
(** MD5 hex digest of the circuit's canonical [.bench] rendering plus a
    structural key per fault, in list order.  Two sweeps share a digest
    exactly when they analyze the same fault list on the same circuit —
    index [i] then refers to the same fault in both, which is what makes
    journaled outcomes safe to reuse.  Outcomes also depend on the sweep
    settings, so callers key journals on {!Sweep_config.fingerprint}
    too: [dpa analyze --checkpoint] folds it into the header digest it
    writes and checks, [dpa serve] into the state-file name. *)

(** {1 Writing} *)

type sink
(** An open journal being appended to.  Appends are mutex-protected, so
    worker domains may record outcomes concurrently. *)

val create :
  ?sync_every:int -> path:string -> digest:string -> faults:int -> unit -> sink
(** Truncate [path], write the header line, fsync, and return a sink for
    appending.  [sync_every] (default 32) is the number of appended
    outcomes between [fsync] batches — smaller is more crash-durable,
    larger is cheaper. *)

val reopen : ?sync_every:int -> path:string -> unit -> sink
(** Open an existing journal for appending (resume).  The caller is
    expected to have validated the file with {!load} first; no header is
    written. *)

val append : sink -> int -> Engine.outcome -> unit
(** Append one outcome line for fault index [i].  Thread-safe; flushed
    and fsync'd every [sync_every] appends.  Appending the same index
    twice is legal — {!load} keeps the later entry — though a sweep
    never does: {!Engine.sweep} records each computed fault once. *)

val close : sink -> unit
(** Flush, fsync, and close. *)

val sync_now : sink -> unit
(** Flush and fsync the pending append batch {e without} taking the
    sink's mutex — the one journal operation safe to call from a
    SIGINT/SIGTERM handler while worker threads may be mid-append
    (taking the lock there could deadlock against the interrupted
    thread).  The cost of the missing lock is bounded: at worst the
    final line is torn, which {!load} already tolerates; the win is
    that a politely-killed sweep keeps every outcome computed before
    the signal instead of losing the whole unsynced batch.  Never
    raises. *)

(** {1 Writer lock}

    Two processes appending to one journal interleave torn records that
    {!load} cannot distinguish from corruption, so checkpoint writers
    take an exclusive advisory lock first: an [O_EXCL]-created sidecar
    file ([path ^ ".lock"]) naming the holder pid.  A lock whose pid is
    dead (a SIGKILLed writer), or a zombie its parent has not reaped yet
    (read from [/proc/<pid>/stat] where that exists), is stale and
    silently broken — a crash must never wedge the state directory. *)

type lock

val writer_lock_path : string -> string
(** The sidecar lock-file path guarding a journal path. *)

val acquire_writer_lock : path:string -> unit -> (lock, string) result
(** Take the exclusive writer lock for the journal at [path].
    [Error reason] when another {e live} process holds it (the reason
    names that pid) or the lock file cannot be created; a stale lock
    (dead holder) is broken and re-acquired transparently. *)

val release_writer_lock : lock -> unit
(** Remove the lock file.  Never raises. *)

(** {1 State directories} *)

val ensure_state_dir : string -> unit
(** Create [dir] if missing (existing directories are fine).
    @raise Invalid_argument when [dir] exists but is a regular file. *)

val state_file : dir:string -> digest:string -> tag:string -> string
(** The journal path for one sweep inside a multi-sweep state
    directory: [dir/<digest>-<tag>.jsonl], with [tag] sanitised to
    filename-safe characters.  Same digest and tag always map to the
    same file, so a restarted server finds its predecessor's journal;
    different option fingerprints (the tag) never share one. *)

(** {1 Reading} *)

val load :
  path:string ->
  digest:string ->
  faults:Fault.t array ->
  ((int, Engine.outcome) Hashtbl.t, string) result
(** Parse a journal back into an index → outcome table.
    [Error reason] when the file is unreadable, its header is corrupt,
    its version is unsupported (old-schema journals are rejected, with
    the offending line number, rather than resumed into wrong results),
    or its digest / fault count disagree with [digest] / [faults] — a
    stale journal is never silently reused.  Entry lines after the
    header are absorbed in order with last-entry-wins.  Two corruption
    modes are told apart: a line that is not even JSON is the torn tail
    of a kill — loading stops there and keeps every line before it —
    while a line that parses but does not match the outcome schema
    means the file is wrong rather than torn, and loading fails with a
    [line N:] diagnostic. *)

val engine_journal :
  ?sink:sink -> (int, Engine.outcome) Hashtbl.t -> Engine.journal
(** Bridge to {!Engine.sweep}'s [?journal] hook: [skip] consults
    the table, [record] appends to [sink] (or does nothing when [sink]
    is absent — useful for replay without rewriting). *)

(** {1 Line format} *)

val header_line : digest:string -> faults:int -> string
(** The header object (no trailing newline). *)

val outcome_line : int -> Engine.outcome -> string
(** One outcome as its journal line (no trailing newline) — also the
    per-fault record format of [dpa analyze --json]. *)

val outcome_of_line :
  faults:Fault.t array -> string -> (int * Engine.outcome) option
(** Parse one entry line; [None] on a torn or foreign line.  The fault
    payload of the outcome is reconstructed from [faults.(i)]. *)

(** {1 Flat JSON}

    The journal's hand-rolled single-line flat-object JSON dialect —
    string/int/float/bool/null values, no nesting — exported so the
    [dpa serve] wire protocol (which speaks exactly this dialect in
    both directions) parses with the same code that reads journals. *)

type jv = S of string | I of int | F of float | B of bool | Null

val parse_flat_object : string -> (string * jv) list option
(** Parse one [{"k":v,...}] line into its fields, in declaration order;
    [None] on anything outside the dialect (nesting, arrays, trailing
    bytes).  Exactly the parser {!load} reads entry lines with. *)

val field_string : (string * jv) list -> string -> string option
val field_int : (string * jv) list -> string -> int option
val field_bool : (string * jv) list -> string -> bool option

val field_float : (string * jv) list -> string -> float option
(** Accepts plain JSON numbers, integers, and the journal's ["%h"]
    hex-float strings. *)

val json_escape : string -> string
(** Escape a string for embedding between double quotes in the flat
    dialect (quotes, backslashes, control characters). *)
