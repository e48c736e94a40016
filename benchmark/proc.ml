(* Process plumbing: peak memory, scratch directories, and bounded waits
   on child processes. *)

(* Peak resident set ([VmHWM]) of a live process, in MB; [None] once the
   process is gone or on a system without /proc. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] -> (
             match String.split_on_char ' ' (String.trim v) with
             | kb :: _ -> Option.map (fun k -> float_of_int k /. 1024.) (int_of_string_opt kb)
             | [] -> None)
           | _ -> None)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

type exit = Exited of int | Signaled of int | Timed_out

(* Wait for [pid] until the absolute time [deadline]; on expiry the
   process is killed (with [kill_group], its whole process group) and
   reaped, so nothing outlives the caller. *)
let wait_until ?(kill_group = false) pid ~deadline =
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () >= deadline then begin
        if kill_group then (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        Timed_out
      end
      else begin
        Unix.sleepf 0.005;
        poll ()
      end
    | _, Unix.WEXITED c -> Exited c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Signaled s
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
  in
  poll ()

(* Kill whatever is left of an ended child's process group — a daemon
   the child could not stop — and wait (up to 5 s) until it is gone. *)
let stop_group pid =
  let alive () = match Unix.kill (-pid) 0 with () -> true | exception Unix.Unix_error _ -> false in
  if alive () then begin
    (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. 5. in
    while alive () && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done
  end
