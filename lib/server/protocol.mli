(** The [dpa serve] wire protocol.

    JSON-lines in both directions; every line is one flat (unnested)
    JSON object in the journal's dialect, so requests parse with
    {!Journal.parse_flat_object} and streamed outcomes are the
    journal's own records wrapped in an [{id, type}] envelope.  The
    envelope wrap is pure string splicing ({!outcome} /
    {!outcome_journal_line} are exact inverses), which is what lets a
    client reconstruct — and [cmp] — the server's journal bytes from
    its response stream.

    Requests:
    {v
    {"id":"r1","op":"analyze","circuit":"c432","deadline_ms":5000}
    {"id":"r2","op":"analyze","title":"adhoc","netlist":"INPUT(a)\n..."}
    {"id":"r3","op":"lint","circuit":"c17"}
    {"id":"r4","op":"ping"}   {"id":"r5","op":"stats"}
    {"id":"r6","op":"shutdown"}
    v}

    Responses (one [ack], then streamed [outcome]/[finding] lines in
    fault-index order, then one [done]; or a single [busy] / [error]):
    {v
    {"id":"r1","type":"ack","op":"analyze","digest":"…","faults":524,"coalesced":false}
    {"id":"r1","type":"outcome","i":0,"fault":"…","kind":"exact",…}
    {"id":"r1","type":"done","op":"analyze","exact":524,…,"elapsed_ms":41.8}
    {"id":"r9","type":"busy","queued":64,"capacity":64,"retry_after_ms":350}
    v} *)

type circuit_spec =
  | Named of string  (** a built-in benchmark, resolved by name *)
  | Inline of { title : string; source : string }
      (** inline ISCAS-85 [.bench] text shipped in the request *)

type request =
  | Analyze of { id : string; spec : circuit_spec; config : Sweep_config.t }
      (** [config] is {!Sweep_config.default} with the request's four
          optional sweep fields applied: ["fault_budget"],
          ["deadline_ms"] (a JSON number or a ["%h"] hex-float string),
          ["max_retries"] and ["samples"] ([bound_samples]).  The daemon
          overlays them on its own base settings.  Two analyze requests
          coalesce into one sweep — and may share a journal file — only
          when their netlist digests and the {!Sweep_config.fingerprint}s
          of the settings the sweep runs under both match. *)
  | Lint of { id : string; spec : circuit_spec }
  | Ping of { id : string }
  | Stats of { id : string }
  | Shutdown of { id : string }

val parse_request : string -> (request, string option * string) result
(** [Error (id, msg)] echoes the request id when one was readable, so
    clients can correlate rejections.  Sweep fields go through
    {!Sweep_config.validate}: a negative budget, retry count or sample
    count, or a deadline that is not a finite positive number, is an
    [Error] naming the rule. *)

(** {1 Response rendering (server side)} *)

val ack :
  id:string -> op:string -> digest:string -> faults:int -> coalesced:bool ->
  string

val outcome : id:string -> string -> string
(** [outcome ~id journal_line] wraps one {!Journal.outcome_line} record
    in the response envelope without re-rendering any payload byte. *)

val finding : id:string -> Diagnostic.t -> string

val analyze_done :
  id:string -> exact:int -> bounded:int -> unbounded:int -> crashed:int ->
  rescued:int -> resumed:int -> elapsed_ms:float -> string
(** [resumed] counts outcomes re-served from a restart-recovered
    journal prefix rather than recomputed. *)

val lint_done :
  id:string -> errors:int -> warnings:int -> infos:int -> elapsed_ms:float ->
  string

val busy : id:string -> queued:int -> capacity:int -> retry_after_ms:int ->
  string

val error : id:string option -> code:string -> string -> string
val pong : id:string -> string

val stats : id:string -> (string * string) list -> string
(** [stats ~id fields]: [fields] are (name, pre-rendered JSON value)
    pairs appended verbatim. *)

(** {1 Response parsing (client side)} *)

type response =
  | Ack of { id : string; op : string; digest : string; faults : int;
             coalesced : bool }
  | Outcome of { id : string; index : int; journal_line : string }
  | Finding of { id : string; rule : string; severity : string;
                 message : string }
  | Done of { id : string; op : string; exact : int; bounded : int;
              unbounded : int; crashed : int; resumed : int }
  | Busy of { id : string; queued : int; capacity : int;
              retry_after_ms : int }
  | Error_response of { id : string option; code : string; message : string }
  | Pong of { id : string }
  | Stats_response of { id : string; fields : (string * Journal.jv) list }

val parse_response : string -> (response, string) result

val outcome_journal_line : string -> string option
(** Recover the exact journal-record bytes from an outcome response
    line: the inverse of {!outcome}, by string surgery rather than
    re-rendering, preserving byte identity. *)

(** {1 Request rendering (client side)} *)

val analyze_request :
  id:string -> ?config:Sweep_config.t -> circuit_spec -> string
(** Renders the four wire fields of [config] (default
    {!Sweep_config.default}) that differ from the default; its other
    settings are the daemon's to choose and are not sent. *)

val lint_request : id:string -> circuit_spec -> string

val simple_request : id:string -> string -> string
(** [simple_request ~id op] for ["ping"], ["stats"], ["shutdown"]. *)
