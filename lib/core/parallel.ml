(* Work-stealing fan-out over batches (OCaml 5 stdlib only).

   The mutable half of a BDD arena is single-threaded, so callers hand
   this module an [init] that builds per-domain state — a [Bdd.fork]
   over a sealed shared snapshot — rather than sharing one engine.  Idle
   domains pull the next batch off a shared atomic counter, which
   balances wildly uneven batch costs, and results come back
   index-aligned with the batches, so output order equals input order. *)

let available_domains () = Domain.recommended_domain_count ()

(* Patrol backoff schedule.  An idle patroller that finds nothing to
   rescue must not burn a core re-scanning the claim table (the old
   fixed 2 ms sleep was ~500 wakeups/s/domain on a wedged tail): the
   first rounds are bare [Domain.cpu_relax] spins — a near-finished
   sweep ends within microseconds and a sleeping patroller would only
   add latency — after which sleeps double from 0.5 ms up to a 50 ms
   cap, still far below any per-batch deadline (>= 1 s), so rescue
   latency stays negligible while a long wedge costs ~20 wakeups/s.
   Pure function of the idle-round count, exposed for the unit tests. *)
let patrol_spin_rounds = 3

let patrol_backoff_delay round =
  if round < patrol_spin_rounds then None
  else
    let exp = min 16 (round - patrol_spin_rounds) in
    Some (Float.min 0.05 (0.0005 *. float_of_int (1 lsl exp)))

(* Work stealing, optionally with a watchdog.  Each domain builds its
   own state once, then drains the queue: fetch_and_add hands out each
   batch index exactly once.  A batch whose processing raises is
   contained as [Error] in its slot; the worker keeps stealing.

   OCaml domains cannot be killed, so supervision is by *duplication*,
   not preemption: every batch records the wall-clock instant it was
   claimed, and with a [batch_deadline] a worker that finds the queue
   empty patrols the claim table instead of returning — a batch whose
   claimant has held it longer than its deadline is re-executed on the
   idle worker, first published result wins (CAS), so a worker wedged in
   one pathological batch can no longer stall the rest of the sweep.
   The wedged domain itself must still come home before the join
   returns — callers bound that with a cooperative in-computation
   deadline (e.g. [Bdd.with_deadline]); the rescue only stops its
   victim's remaining work from waiting on it. *)
let steal_batches ?domains ?batch_deadline ~init ~process batches =
  let n = Array.length batches in
  let domains =
    match domains with Some d -> max 1 d | None -> available_domains ()
  in
  let domains = min domains (max 1 n) in
  if n = 0 then [||]
  else begin
    let results = Array.init n (fun _ -> Atomic.make None) in
    (* neg_infinity = never claimed (the counter will hand it out). *)
    let claimed_at = Array.init n (fun _ -> Atomic.make neg_infinity) in
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let attempt state i =
      Atomic.set claimed_at.(i) (Unix.gettimeofday ());
      let r = try Ok (process state batches.(i)) with exn -> Error exn in
      if Atomic.compare_and_set results.(i) None (Some r) then
        Atomic.incr completed
    in
    let rec patrol deadline_of state idle =
      if Atomic.get completed < n then begin
        let now = Unix.gettimeofday () in
        let rescued = ref false in
        for i = 0 to n - 1 do
          if (not !rescued) && Option.is_none (Atomic.get results.(i))
          then begin
            let t0 = Atomic.get claimed_at.(i) in
            if
              t0 > neg_infinity
              && now -. t0 > deadline_of batches.(i)
              (* The CAS both elects one rescuer and restarts the
                 batch's clock, so rescuers don't pile on. *)
              && Atomic.compare_and_set claimed_at.(i) t0 now
            then begin
              rescued := true;
              attempt state i
            end
          end
        done;
        if !rescued then patrol deadline_of state 0
        else begin
          (match patrol_backoff_delay idle with
          | None -> Domain.cpu_relax ()
          | Some s -> Unix.sleepf s);
          (* Saturating: the schedule is capped anyway, and the counter
             must not wrap on a very long wedge. *)
          patrol deadline_of state
            (if idle < max_int - 1 then idle + 1 else idle)
        end
      end
    in
    let run () =
      let state = init () in
      let rec drain () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          attempt state i;
          drain ()
        end
        else Option.iter (fun d -> patrol d state 0) batch_deadline
      in
      drain ()
    in
    (if domains = 1 then run ()
     else begin
       (* A spawned worker whose [init] fails exits quietly — the queue
          is shared, so survivors absorb its share.  The calling domain's
          own [init] failure is re-raised, after every join. *)
       let spawned =
         List.init (domains - 1) (fun _ ->
             Domain.spawn (fun () -> try run () with _ -> ()))
       in
       let caller = (try run (); None with exn -> Some exn) in
       List.iter Domain.join spawned;
       Option.iter raise caller
     end);
    Array.map
      (fun cell ->
        match Atomic.get cell with
        | Some r -> r
        | None -> Error (Failure "Parallel.steal_batches: batch never ran"))
      results
  end
