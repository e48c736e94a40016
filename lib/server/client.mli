(** Minimal blocking client for the [dpa serve] protocol — the socket
    plumbing shared by the bench load generator, the tests, and the CI
    serve lane. *)

type t

val connect_unix : string -> t
val connect_tcp : string -> int -> t

val connect_unix_retry : ?timeout_s:float -> string -> t
(** Retry refused connections until [timeout_s] (default 10 s) — waits
    out a just-forked daemon's startup. *)

val send : t -> string -> unit
(** Write one request line and flush. *)

val recv : t -> string option
(** Read one response line; [None] on EOF. *)

val recv_response : t -> (Protocol.response, string) result
val close : t -> unit

type analyze_result = {
  ack : Protocol.response option;
  outcomes : (int * string) list;
      (** fault index, exact journal-line bytes, in stream order *)
  final : Protocol.response;  (** [Done], [Busy], or [Error_response] *)
}

val analyze :
  t -> id:string -> ?config:Sweep_config.t -> Protocol.circuit_spec ->
  (analyze_result, string) result
(** Send one analyze request and collect its whole response stream. *)
