(* JSON-lines sweep checkpoints.

   One header line naming the (circuit, fault list) digest, then one
   flat JSON object per completed outcome, appended as the sweep runs
   and fsync'd in batches.  A journal is only ever appended to, so a
   SIGKILL can at worst tear the final line — the loader tolerates
   exactly that (it stops at the first unparseable line) and rejects
   everything else: wrong digest, wrong fault count, corrupt header.

   No JSON library is available here, so both the writer and the
   (flat-object) reader are hand-rolled.  Floats are serialized as "%h"
   hex-float strings: exact round-trips, so a resumed sweep's final
   report is byte-identical to an uninterrupted one. *)

let magic = "dpa-sweep"

(* v2 added the reorder-rescue stage: exact records carry "resc".  v3:
   an unbudgeted journaled sweep stopped restoring the canonical arena
   before every fault, so the settings fingerprint its header digest
   covers changed (its suffix is now [k1] exactly for budgeted sweeps,
   see [Sweep_config.fingerprint]).  Old journals are rejected up front (see
   [load]) — silently resuming one would merge outcomes computed under
   other rules and break the resumed-equals-uninterrupted guarantee. *)
let version = 3

(* ------------------------------------------------------------------ *)
(* Digest                                                              *)

(* Structural fault keys — [Fault.to_string] needs a well-formed net and
   may raise on the crash-injection faults tests journal on purpose. *)
let fault_key fault =
  match fault with
  | Fault.Stuck { Sa_fault.line = Sa_fault.Stem s; value } ->
    Printf.sprintf "S%d:%d" s (Bool.to_int value)
  | Fault.Stuck { Sa_fault.line = Sa_fault.Branch br; value } ->
    Printf.sprintf "R%d,%d,%d:%d" br.Circuit.stem br.Circuit.sink
      br.Circuit.pin (Bool.to_int value)
  | Fault.Bridged { Bridge.a; b; kind } ->
    Printf.sprintf "B%d,%d:%c" a b
      (match kind with Bridge.Wired_and -> 'a' | Bridge.Wired_or -> 'o')
  | Fault.Multi_stuck sites ->
    "M"
    ^ String.concat ";"
        (List.map
           (fun (s, v) -> Printf.sprintf "%d:%d" s (Bool.to_int v))
           sites)

let digest c faults =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Bench_format.print c);
  List.iter
    (fun f ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (fault_key f))
    faults;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | ch when Char.code ch < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.contents buf

(* "%h" prints the exact binary value (e.g. 0x1.8p-2), so
   [float_of_string] restores the identical bit pattern. *)
let float_field f = Printf.sprintf "\"%h\"" f

let field buf name value =
  if Buffer.length buf > 1 then Buffer.add_char buf ',';
  Buffer.add_char buf '"';
  Buffer.add_string buf name;
  Buffer.add_string buf "\":";
  Buffer.add_string buf value

let object_line fill =
  let buf = Buffer.create 128 in
  Buffer.add_char buf '{';
  fill (field buf);
  Buffer.add_char buf '}';
  Buffer.contents buf

let header_line ~digest ~faults =
  object_line (fun field ->
      field "journal" (Printf.sprintf "%S" magic);
      field "version" (string_of_int version);
      field "digest" (Printf.sprintf "%S" digest);
      field "faults" (string_of_int faults))

let outcome_line i outcome =
  object_line (fun field ->
      field "i" (string_of_int i);
      match outcome with
      | Engine.Exact r ->
        field "o" "\"exact\"";
        field "d" (float_field r.Engine.detectability);
        field "tc" (float_field r.Engine.test_count);
        field "det" (string_of_bool r.Engine.detectable);
        field "pf" (string_of_int r.Engine.pos_fed);
        field "po" (string_of_int r.Engine.pos_observed);
        field "ub" (float_field r.Engine.upper_bound);
        field "adh"
          (match r.Engine.adherence with
          | None -> "null"
          | Some a -> float_field a);
        field "ws"
          (match r.Engine.wired_support with
          | None -> "null"
          | Some n -> string_of_int n);
        field "tsn" (string_of_int r.Engine.test_set_nodes);
        field "resc" (string_of_bool r.Engine.rescued_by_reorder)
      | Engine.Bounded { lower; upper; syndrome_bound; samples; reason; _ } -> (
        field "o" "\"bounded\"";
        field "lo" (float_field lower);
        field "up" (float_field upper);
        field "sb" (float_field syndrome_bound);
        field "n" (string_of_int samples);
        match reason with
        | Engine.Over_budget { nodes; budget } ->
          field "why" "\"budget\"";
          field "nodes" (string_of_int nodes);
          field "budget" (string_of_int budget)
        | Engine.Over_deadline { deadline_ms } ->
          field "why" "\"deadline\"";
          field "dl" (float_field deadline_ms))
      | Engine.Budget_exceeded { nodes; budget; _ } ->
        field "o" "\"budget\"";
        field "nodes" (string_of_int nodes);
        field "budget" (string_of_int budget)
      | Engine.Deadline_exceeded { elapsed_ms; deadline_ms; _ } ->
        field "o" "\"deadline\"";
        field "el" (float_field elapsed_ms);
        field "dl" (float_field deadline_ms)
      | Engine.Crashed { message; _ } ->
        field "o" "\"crashed\"";
        field "msg" (Printf.sprintf "\"%s\"" (json_escape message)))

(* ------------------------------------------------------------------ *)
(* Reading: a minimal flat-object JSON tokenizer.  Anything this module
   did not write — nesting, arrays, exponent-format numbers — fails the
   parse, which the loader treats as a torn tail. *)

type jv = S of string | I of int | F of float | B of bool | Null

exception Bad

let parse_object line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos >= n then raise Bad else line.[!pos] in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (peek () = ' ' || peek () = '\t') do
      advance ()
    done
  in
  let expect ch =
    skip_ws ();
    if peek () <> ch then raise Bad;
    advance ()
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if !pos + 4 >= n then raise Bad;
          let code =
            try int_of_string ("0x" ^ String.sub line (!pos + 1) 4)
            with _ -> raise Bad
          in
          pos := !pos + 4;
          if code > 0xff then raise Bad (* we only ever write ASCII *)
          else Buffer.add_char buf (Char.chr code)
        | _ -> raise Bad);
        advance ();
        go ()
      | ch ->
        Buffer.add_char buf ch;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> S (parse_string ())
    | 't' ->
      if !pos + 4 <= n && String.sub line !pos 4 = "true" then begin
        pos := !pos + 4;
        B true
      end
      else raise Bad
    | 'f' ->
      if !pos + 5 <= n && String.sub line !pos 5 = "false" then begin
        pos := !pos + 5;
        B false
      end
      else raise Bad
    | 'n' ->
      if !pos + 4 <= n && String.sub line !pos 4 = "null" then begin
        pos := !pos + 4;
        Null
      end
      else raise Bad
    | '-' | '0' .. '9' ->
      let start = !pos in
      if peek () = '-' then advance ();
      while
        !pos < n
        && (match line.[!pos] with '0' .. '9' | '.' -> true | _ -> false)
      do
        advance ()
      done;
      let text = String.sub line start (!pos - start) in
      (match int_of_string_opt text with
      | Some i -> I i
      | None -> (
        match float_of_string_opt text with
        | Some f -> F f
        | None -> raise Bad))
    | _ -> raise Bad
  in
  try
    expect '{';
    skip_ws ();
    if peek () = '}' then begin
      advance ();
      Some []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        let key = (skip_ws (); parse_string ()) in
        expect ':';
        let value = parse_value () in
        fields := (key, value) :: !fields;
        skip_ws ();
        match peek () with
        | ',' ->
          advance ();
          members ()
        | '}' -> advance ()
        | _ -> raise Bad
      in
      members ();
      skip_ws ();
      if !pos <> n then raise Bad;
      Some (List.rev !fields)
    end
  with Bad -> None

(* The same tokenizer, exported: the [dpa serve] protocol speaks exactly
   this flat-object dialect (requests and responses alike), so the
   server's parser and the journal's are one piece of code. *)
let parse_flat_object = parse_object

let find fields name = List.assoc_opt name fields

let get_int fields name =
  match find fields name with Some (I i) -> i | _ -> raise Bad

let get_bool fields name =
  match find fields name with Some (B b) -> b | _ -> raise Bad

let get_string fields name =
  match find fields name with Some (S s) -> s | _ -> raise Bad

let get_float fields name =
  (* Floats travel as "%h" strings; plain JSON numbers are accepted for
     hand-written journals. *)
  match find fields name with
  | Some (S s) -> (
    match float_of_string_opt s with Some f -> f | None -> raise Bad)
  | Some (F f) -> f
  | Some (I i) -> float_of_int i
  | _ -> raise Bad

(* Option-returning accessors over a parsed flat object, for protocol
   code that wants to distinguish "absent" from "present but wrong". *)
let field_string fields name =
  match find fields name with Some (S s) -> Some s | _ -> None

let field_int fields name =
  match find fields name with Some (I i) -> Some i | _ -> None

let field_bool fields name =
  match find fields name with Some (B b) -> Some b | _ -> None

let field_float fields name =
  match find fields name with
  | Some (F f) -> Some f
  | Some (I i) -> Some (float_of_int i)
  | Some (S s) -> float_of_string_opt s
  | _ -> None

(* Field extraction over an already-parsed object: [None] means the
   object is structurally valid JSON but does not match the v2 outcome
   schema — a different failure from a torn line, and [load] reports it
   as corruption instead of silently stopping. *)
let outcome_of_fields ~faults fields =
  (
    try
      let i = get_int fields "i" in
      if i < 0 || i >= Array.length faults then raise Bad;
      let fault = faults.(i) in
      let outcome =
        match get_string fields "o" with
        | "exact" ->
          Engine.Exact
            {
              Engine.fault;
              detectability = get_float fields "d";
              test_count = get_float fields "tc";
              detectable = get_bool fields "det";
              pos_fed = get_int fields "pf";
              pos_observed = get_int fields "po";
              upper_bound = get_float fields "ub";
              adherence =
                (match find fields "adh" with
                | Some Null -> None
                | _ -> Some (get_float fields "adh"));
              wired_support =
                (match find fields "ws" with
                | Some Null -> None
                | _ -> Some (get_int fields "ws"));
              test_set_nodes = get_int fields "tsn";
              rescued_by_reorder = get_bool fields "resc";
            }
        | "bounded" ->
          let reason =
            match get_string fields "why" with
            | "budget" ->
              Engine.Over_budget
                {
                  nodes = get_int fields "nodes";
                  budget = get_int fields "budget";
                }
            | "deadline" ->
              Engine.Over_deadline { deadline_ms = get_float fields "dl" }
            | _ -> raise Bad
          in
          Engine.Bounded
            {
              fault;
              lower = get_float fields "lo";
              upper = get_float fields "up";
              syndrome_bound = get_float fields "sb";
              samples = get_int fields "n";
              reason;
            }
        | "budget" ->
          Engine.Budget_exceeded
            {
              fault;
              nodes = get_int fields "nodes";
              budget = get_int fields "budget";
            }
        | "deadline" ->
          Engine.Deadline_exceeded
            {
              fault;
              elapsed_ms = get_float fields "el";
              deadline_ms = get_float fields "dl";
            }
        | "crashed" ->
          Engine.Crashed { fault; message = get_string fields "msg" }
        | _ -> raise Bad
      in
      Some (i, outcome)
    with Bad -> None)

let outcome_of_line ~faults line =
  match parse_object line with
  | None -> None
  | Some fields -> outcome_of_fields ~faults fields

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

type sink = {
  oc : out_channel;
  lock : Mutex.t;
  sync_every : int;
  mutable unsynced : int;
}

let default_sync_every = 32

let make_sink ?(sync_every = default_sync_every) oc =
  { oc; lock = Mutex.create (); sync_every; unsynced = 0 }

let sync sink =
  flush sink.oc;
  (* fsync can be unsupported on exotic filesystems; a failed sync only
     weakens crash durability, never the sweep. *)
  (try Unix.fsync (Unix.descr_of_out_channel sink.oc) with _ -> ())

let create ?sync_every ~path ~digest ~faults () =
  let oc = open_out path in
  let sink = make_sink ?sync_every oc in
  output_string oc (header_line ~digest ~faults);
  output_char oc '\n';
  sync sink;
  sink

let reopen ?sync_every ~path () =
  make_sink ?sync_every
    (open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path)

let append sink i outcome =
  Mutex.lock sink.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sink.lock)
    (fun () ->
      output_string sink.oc (outcome_line i outcome);
      output_char sink.oc '\n';
      sink.unsynced <- sink.unsynced + 1;
      if sink.unsynced >= sink.sync_every then begin
        sync sink;
        sink.unsynced <- 0
      end)

let close sink =
  Mutex.lock sink.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sink.lock)
    (fun () ->
      sync sink;
      close_out sink.oc)

(* Deliberately lock-free: this is what a SIGINT/SIGTERM handler calls
   to make the pending fsync batch durable before exiting, and the
   interrupted thread may be holding [sink.lock] mid-append — taking it
   here would deadlock the handler.  The worst a concurrent append can
   cost is a torn final line, which [load] already tolerates; without
   this call a polite kill loses the whole unsynced batch instead. *)
let sync_now sink = try sync sink with _ -> ()

(* ------------------------------------------------------------------ *)
(* Writer lock.  Two processes appending to one journal interleave torn
   records that [load] cannot tell from corruption, so the file gets an
   exclusive advisory lock: an O_EXCL-created sidecar naming the holder
   pid.  O_EXCL makes creation atomic even over NFS-ish filesystems; the
   pid makes a lock left behind by a SIGKILLed holder breakable (the
   restart-and-resume path depends on that — a crash must never wedge
   the state dir).  A pid that no longer exists or is a zombie, or an
   unreadable lock file, is stale and silently replaced. *)

type lock = { lock_file : string }

let writer_lock_path path = path ^ ".lock"

(* A zombie — a SIGKILLed writer its parent has not reaped yet — still
   answers [kill 0], yet it will never write again.  Linux's
   [/proc/<pid>/stat] gives the state right after the last ')' (the
   command name in parentheses may itself hold one).  Where [/proc]
   cannot be read, no pid counts as a zombie and [kill 0] decides. *)
let zombie pid =
  match
    In_channel.with_open_bin
      (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  with
  | exception _ -> false
  | stat -> (
    match String.rindex_opt stat ')' with
    | Some i when i + 2 < String.length stat -> stat.[i + 2] = 'Z'
    | _ -> false)

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> not (zombie pid)
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  (* EPERM: alive but owned by someone else. *)
  | exception Unix.Unix_error (Unix.EPERM, _, _) -> not (zombie pid)
  | exception _ -> false

let read_lock_pid lock_file =
  match open_in lock_file with
  | exception _ -> None
  | ic ->
    let pid =
      match input_line ic with
      | exception _ -> None
      | line -> int_of_string_opt (String.trim line)
    in
    close_in_noerr ic;
    pid

let rec acquire_writer_lock ?(retried = false) ~path () =
  let lock_file = writer_lock_path path in
  match
    Unix.openfile lock_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
  with
  | fd ->
    let line = Printf.sprintf "%d\n" (Unix.getpid ()) in
    ignore (Unix.write_substring fd line 0 (String.length line));
    (try Unix.close fd with _ -> ());
    Ok { lock_file }
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> (
    match read_lock_pid lock_file with
    | Some pid when pid_alive pid ->
      Error
        (Printf.sprintf
           "journal writer lock held by running process %d (remove %s only \
            if that process is not a dpa writer)"
           pid lock_file)
    | Some _ | None ->
      (* Stale: the holder is gone (SIGKILL) or never finished writing
         its pid.  Break the lock and try once more; a second EEXIST
         loss means another process is racing us for the same journal,
         and it won. *)
      if retried then
        Error "journal writer lock is contended (another writer is racing)"
      else begin
        (try Sys.remove lock_file with _ -> ());
        acquire_writer_lock ~retried:true ~path ()
      end)
  | exception Unix.Unix_error (err, _, _) ->
    Error
      (Printf.sprintf "cannot create writer lock %s: %s" lock_file
         (Unix.error_message err))

let acquire_writer_lock ~path () = acquire_writer_lock ~path ()

let release_writer_lock { lock_file } =
  try Sys.remove lock_file with _ -> ()

(* ------------------------------------------------------------------ *)
(* State directories.  A resident server checkpoints many sweeps at
   once, so journals live in a directory keyed by sweep digest plus a
   caller tag (the options fingerprint): same digest + same tag = same
   resumable sweep, different options never share a file. *)

let ensure_state_dir dir =
  if not (Sys.file_exists dir) then (
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Journal.ensure_state_dir: %s is a file" dir)

let state_file ~dir ~digest ~tag =
  let safe =
    String.map
      (fun ch ->
        match ch with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> ch
        | _ -> '_')
      tag
  in
  Filename.concat dir (Printf.sprintf "%s-%s.jsonl" digest safe)

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let text = really_input_string ic (in_channel_length ic) in
      String.split_on_char '\n' text)

let load ~path ~digest ~faults =
  match read_lines path with
  | exception Sys_error msg -> Error msg
  | [] -> Error "empty journal"
  | header :: entries -> (
    match parse_object header with
    | None -> Error "corrupt journal header"
    | Some fields -> (
      try
        if get_string fields "journal" <> magic then raise Bad;
        if get_int fields "version" <> version then
          Error
            (Printf.sprintf
               "line 1: journal version %d is not %d (written by an \
                incompatible dpa; re-run the sweep to write a v%d journal)"
               (get_int fields "version") version version)
        else if get_string fields "digest" <> digest then
          Error
            "stale journal: circuit, fault list or sweep options changed \
             since it was written"
        else if get_int fields "faults" <> Array.length faults then
          Error "stale journal: fault count changed since it was written"
        else begin
          let table = Hashtbl.create 1024 in
          (* Entries accumulate in file order; a later duplicate (a
             watchdog re-execution) overrides.  The first line that is
             not even JSON is the torn tail of a kill — everything after
             it is unreliable, so loading stops there and keeps what
             came before.  A line that parses as JSON but does not match
             the outcome schema is a different animal: the file is not
             torn but *wrong* (hand-edited, foreign, or written by a dpa
             whose schema lied about its version), and resuming from it
             would corrupt the sweep — reject with the line number. *)
          let rec absorb lineno = function
            | [] -> Ok table
            | line :: rest -> (
              if String.trim line = "" then absorb (lineno + 1) rest
              else
                match parse_object line with
                | None -> Ok table (* torn tail *)
                | Some entry_fields -> (
                  match outcome_of_fields ~faults entry_fields with
                  | Some (i, outcome) ->
                    Hashtbl.replace table i outcome;
                    absorb (lineno + 1) rest
                  | None ->
                    Error
                      (Printf.sprintf
                         "line %d: entry does not match the v%d outcome \
                          schema"
                         lineno version)))
          in
          (* The header is line 1; entries start on line 2. *)
          absorb 2 entries
        end
      with Bad -> Error "corrupt journal header"))

let engine_journal ?sink table =
  {
    Engine.skip = (fun i -> Hashtbl.find_opt table i);
    record =
      (match sink with
      | None -> fun _ _ -> ()
      | Some s -> fun i outcome -> append s i outcome);
  }
