(* Running the [dpa] executable from a test: the binary the test
   stanza depends on, run to completion with its output captured. *)

let exe = Filename.concat (Sys.getcwd ()) "../bin/dpa.exe"

(* Exit code and merged stdout/stderr of [dpa args]. *)
let run args =
  let out = Filename.temp_file "dpa-cli" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with _ -> ())
    (fun () ->
      let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let pid =
        Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd
      in
      Unix.close fd;
      let code =
        match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1
      in
      (code, In_channel.with_open_bin out In_channel.input_all))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0
