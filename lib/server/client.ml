(* Minimal blocking client for the dpa serve protocol: shared by the
   bench load generator, the test suite, and the CI serve lane, so the
   socket plumbing is written once. *)

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let of_fd fd =
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX path);
    of_fd fd
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let connect_tcp host port =
  let addr =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> Unix.inet_addr_loopback
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_INET (addr, port));
    of_fd fd
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

(* Retry a refused connection for up to [timeout_s]: the standard way
   to wait for a just-forked daemon to come up. *)
let connect_unix_retry ?(timeout_s = 10.0) path =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match connect_unix path with
    | c -> c
    | exception
        Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
      if Unix.gettimeofday () > deadline then
        failwith (Printf.sprintf "no server on %s after %gs" path timeout_s)
      else begin
        ignore (Unix.select [] [] [] 0.05);
        go ()
      end
  in
  go ()

let send t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc

let recv t = try Some (input_line t.ic) with End_of_file -> None

let recv_response t =
  match recv t with
  | None -> Error "connection closed"
  | Some line -> Protocol.parse_response line

let close t =
  close_out_noerr t.oc;
  close_in_noerr t.ic;
  try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Drive one analyze request to completion, returning the ack, the
   outcome journal-lines in stream order, and the final response
   ([Done], [Busy], or [Error_response]). *)
type analyze_result = {
  ack : Protocol.response option;
  outcomes : (int * string) list;  (* fault index, journal-line bytes *)
  final : Protocol.response;
}

let analyze t ~id ?config spec =
  send t (Protocol.analyze_request ~id ?config spec);
  let rec collect ack outcomes =
    match recv_response t with
    | Error msg -> Error msg
    | Ok (Protocol.Outcome { id = oid; index; journal_line })
      when oid = id ->
      collect ack ((index, journal_line) :: outcomes)
    | Ok (Protocol.Ack _ as a) -> collect (Some a) outcomes
    | Ok ((Protocol.Done _ | Protocol.Busy _ | Protocol.Error_response _)
         as final) ->
      Ok { ack; outcomes = List.rev outcomes; final }
    | Ok _ -> collect ack outcomes
  in
  collect None []
