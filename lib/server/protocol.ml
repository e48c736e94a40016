(* The dpa serve wire protocol: JSON-lines in both directions, every
   line one flat object in the journal's dialect (string / int / float /
   bool / null values, no nesting) so requests parse with
   [Journal.parse_flat_object] — the same tokenizer that reads
   checkpoint files — and streamed outcome lines are byte-for-byte the
   journal's own records wrapped in an {id, type} envelope.  That last
   property is what makes "a restarted server re-serves the completed
   prefix byte-identically" a [cmp]-checkable guarantee instead of a
   structural one. *)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

type circuit_spec =
  | Named of string  (* benchmark name, resolved via Bench_suite *)
  | Inline of { title : string; source : string }
      (* inline .bench source shipped in the request *)

type request =
  | Analyze of { id : string; spec : circuit_spec; config : Sweep_config.t }
  | Lint of { id : string; spec : circuit_spec }
  | Ping of { id : string }
  | Stats of { id : string }
  | Shutdown of { id : string }

let spec_of_fields fields =
  match
    ( Journal.field_string fields "circuit",
      Journal.field_string fields "netlist" )
  with
  | Some name, None -> Ok (Named name)
  | None, Some source ->
    let title =
      Option.value (Journal.field_string fields "title") ~default:"inline"
    in
    Ok (Inline { title; source })
  | Some _, Some _ -> Error "give \"circuit\" or \"netlist\", not both"
  | None, None ->
    Error "missing \"circuit\" (benchmark name) or \"netlist\" (.bench text)"

(* The four wire fields over the default sweep settings, under the one
   validation rule set every boundary applies. *)
let config_of_fields fields =
  let d = Sweep_config.default in
  Sweep_config.validate
    {
      d with
      fault_budget = Journal.field_int fields "fault_budget";
      deadline_ms = Journal.field_float fields "deadline_ms";
      max_retries =
        Option.value (Journal.field_int fields "max_retries")
          ~default:d.max_retries;
      bound_samples =
        Option.value (Journal.field_int fields "samples")
          ~default:d.bound_samples;
    }

(* [Error (id, msg)]: the id is echoed when the request carried a
   usable one, so the client can correlate even its rejections. *)
let parse_request line =
  match Journal.parse_flat_object line with
  | None -> Error (None, "request is not a one-line flat JSON object")
  | Some fields -> (
    let id = Journal.field_string fields "id" in
    match id with
    | None -> Error (None, "missing \"id\"")
    | Some id -> (
      let some = Some id in
      match Journal.field_string fields "op" with
      | None -> Error (some, "missing \"op\"")
      | Some "ping" -> Ok (Ping { id })
      | Some "stats" -> Ok (Stats { id })
      | Some "shutdown" -> Ok (Shutdown { id })
      | Some "lint" -> (
        match spec_of_fields fields with
        | Ok spec -> Ok (Lint { id; spec })
        | Error msg -> Error (some, msg))
      | Some "analyze" -> (
        match spec_of_fields fields with
        | Error msg -> Error (some, msg)
        | Ok spec -> (
          match config_of_fields fields with
          | Error msg -> Error (some, msg)
          | Ok config -> Ok (Analyze { id; spec; config })))
      | Some op ->
        Error
          ( some,
            Printf.sprintf
              "unknown op %S (analyze|lint|ping|stats|shutdown)" op )))

(* ------------------------------------------------------------------ *)
(* Response rendering                                                  *)

let j s = "\"" ^ Journal.json_escape s ^ "\""

let ack ~id ~op ~digest ~faults ~coalesced =
  Printf.sprintf
    "{\"id\":%s,\"type\":\"ack\",\"op\":%s,\"digest\":%s,\"faults\":%d,\"coalesced\":%b}"
    (j id) (j op) (j digest) faults coalesced

let envelope_marker = "\"type\":\"outcome\","

(* Wrap one journal outcome record.  The payload bytes after the
   envelope are exactly [Journal.outcome_line]'s — see
   {!outcome_journal_line} for the inverse. *)
let outcome ~id journal_line =
  Printf.sprintf "{\"id\":%s,%s%s" (j id) envelope_marker
    (String.sub journal_line 1 (String.length journal_line - 1))

let finding ~id (d : Diagnostic.t) =
  let location =
    match d.Diagnostic.location.Diagnostic.net with
    | Some net -> Printf.sprintf ",\"net\":%s" (j net)
    | None -> ""
  in
  Printf.sprintf
    "{\"id\":%s,\"type\":\"finding\",\"rule\":%s,\"severity\":%s,\"message\":%s%s}"
    (j id) (j d.Diagnostic.rule)
    (j (Diagnostic.severity_to_string d.Diagnostic.severity))
    (j d.Diagnostic.message) location

let analyze_done ~id ~exact ~bounded ~unbounded ~crashed ~rescued ~resumed
    ~elapsed_ms =
  Printf.sprintf
    "{\"id\":%s,\"type\":\"done\",\"op\":\"analyze\",\"exact\":%d,\"bounded\":%d,\"unbounded\":%d,\"crashed\":%d,\"rescued\":%d,\"resumed\":%d,\"elapsed_ms\":%.3f}"
    (j id) exact bounded unbounded crashed rescued resumed elapsed_ms

let lint_done ~id ~errors ~warnings ~infos ~elapsed_ms =
  Printf.sprintf
    "{\"id\":%s,\"type\":\"done\",\"op\":\"lint\",\"errors\":%d,\"warnings\":%d,\"infos\":%d,\"elapsed_ms\":%.3f}"
    (j id) errors warnings infos elapsed_ms

let busy ~id ~queued ~capacity ~retry_after_ms =
  Printf.sprintf
    "{\"id\":%s,\"type\":\"busy\",\"queued\":%d,\"capacity\":%d,\"retry_after_ms\":%d}"
    (j id) queued capacity retry_after_ms

let error ~id ~code message =
  Printf.sprintf "{\"id\":%s,\"type\":\"error\",\"code\":%s,\"message\":%s}"
    (match id with None -> "null" | Some id -> j id)
    (j code) (j message)

let pong ~id = Printf.sprintf "{\"id\":%s,\"type\":\"pong\"}" (j id)

let stats ~id fields =
  let buf = Buffer.create 128 in
  Printf.bprintf buf "{\"id\":%s,\"type\":\"stats\"" (j id);
  List.iter (fun (k, v) -> Printf.bprintf buf ",\"%s\":%s" k v) fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Response parsing (the client half: the load generator, the tests,
   and anyone scripting against the daemon). *)

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

(* Recover the exact journal-record bytes from an outcome response line:
   everything after the envelope marker, re-braced.  String surgery, not
   re-rendering — re-rendering could normalize a byte and break the
   cmp-level resume guarantee the protocol promises. *)
let outcome_journal_line line =
  let mlen = String.length envelope_marker in
  let n = String.length line in
  let rec find i =
    if i + mlen > n then None
    else if String.sub line i mlen = envelope_marker then Some (i + mlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start -> Some ("{" ^ String.sub line start (n - start))

let parse_response line =
  match Journal.parse_flat_object line with
  | None -> Error "response is not a flat JSON object"
  | Some fields -> (
    let str name = Journal.field_string fields name in
    let int name = Journal.field_int fields name in
    let req name k =
      match str name with
      | Some v -> k v
      | None -> Error (Printf.sprintf "response missing %S" name)
    in
    let reqi name k =
      match int name with
      | Some v -> k v
      | None -> Error (Printf.sprintf "response missing %S" name)
    in
    match str "type" with
    | None -> Error "response missing \"type\""
    | Some "ack" ->
      req "id" (fun id ->
          req "op" (fun op ->
              req "digest" (fun digest ->
                  reqi "faults" (fun faults ->
                      match Journal.field_bool fields "coalesced" with
                      | Some coalesced ->
                        Ok (Ack { id; op; digest; faults; coalesced })
                      | None -> Error "ack missing \"coalesced\""))))
    | Some "outcome" ->
      req "id" (fun id ->
          reqi "i" (fun index ->
              match outcome_journal_line line with
              | Some journal_line -> Ok (Outcome { id; index; journal_line })
              | None -> Error "outcome response without envelope marker"))
    | Some "finding" ->
      req "id" (fun id ->
          req "rule" (fun rule ->
              req "severity" (fun severity ->
                  req "message" (fun message ->
                      Ok (Finding { id; rule; severity; message })))))
    | Some "done" ->
      req "id" (fun id ->
          req "op" (fun op ->
              if op = "lint" then
                Ok
                  (Done
                     { id; op; exact = 0; bounded = 0; unbounded = 0;
                       crashed = 0; resumed = 0 })
              else
                reqi "exact" (fun exact ->
                    reqi "bounded" (fun bounded ->
                        reqi "unbounded" (fun unbounded ->
                            reqi "crashed" (fun crashed ->
                                reqi "resumed" (fun resumed ->
                                    Ok
                                      (Done
                                         { id; op; exact; bounded; unbounded;
                                           crashed; resumed }))))))))
    | Some "busy" ->
      req "id" (fun id ->
          reqi "queued" (fun queued ->
              reqi "capacity" (fun capacity ->
                  reqi "retry_after_ms" (fun retry_after_ms ->
                      Ok (Busy { id; queued; capacity; retry_after_ms })))))
    | Some "error" ->
      req "code" (fun code ->
          req "message" (fun message ->
              Ok (Error_response { id = str "id"; code; message })))
    | Some "pong" -> req "id" (fun id -> Ok (Pong { id }))
    | Some "stats" ->
      req "id" (fun id -> Ok (Stats_response { id; fields }))
    | Some other -> Error (Printf.sprintf "unknown response type %S" other))

(* ------------------------------------------------------------------ *)
(* Request rendering (client half). *)

let analyze_request ~id ?(config = Sweep_config.default) spec =
  let d = Sweep_config.default in
  let buf = Buffer.create 128 in
  Printf.bprintf buf "{\"id\":%s,\"op\":\"analyze\"" (j id);
  (match spec with
  | Named name -> Printf.bprintf buf ",\"circuit\":%s" (j name)
  | Inline { title; source } ->
    Printf.bprintf buf ",\"title\":%s,\"netlist\":%s" (j title) (j source));
  Option.iter
    (fun b -> Printf.bprintf buf ",\"fault_budget\":%d" b)
    config.fault_budget;
  (* Hex-float string, as the journal writes floats: exact, so two
     distinct deadlines never render alike. *)
  Option.iter
    (fun ms -> Printf.bprintf buf ",\"deadline_ms\":\"%h\"" ms)
    config.deadline_ms;
  if config.max_retries <> d.max_retries then
    Printf.bprintf buf ",\"max_retries\":%d" config.max_retries;
  if config.bound_samples <> d.bound_samples then
    Printf.bprintf buf ",\"samples\":%d" config.bound_samples;
  Buffer.add_char buf '}';
  Buffer.contents buf

let lint_request ~id spec =
  let buf = Buffer.create 64 in
  Printf.bprintf buf "{\"id\":%s,\"op\":\"lint\"" (j id);
  (match spec with
  | Named name -> Printf.bprintf buf ",\"circuit\":%s" (j name)
  | Inline { title; source } ->
    Printf.bprintf buf ",\"title\":%s,\"netlist\":%s" (j title) (j source));
  Buffer.add_char buf '}';
  Buffer.contents buf

let simple_request ~id op = Printf.sprintf "{\"id\":%s,\"op\":%s}" (j id) (j op)
