(* Work-stealing fan-out over batches (OCaml 5 stdlib only).

   The mutable half of a BDD arena is single-threaded, so callers hand
   this module an [init] that builds per-domain state — a [Bdd.fork]
   over a sealed shared snapshot — rather than sharing one engine.  Idle
   domains pull the next batch off a shared atomic counter, which
   balances wildly uneven batch costs, and results come back
   index-aligned with the batches, so output order equals input order. *)

let available_domains () = Domain.recommended_domain_count ()

(* Each domain builds its own state once, then drains the queue:
   fetch_and_add hands out each batch index exactly once, so every slot
   has exactly one writer and the joins publish it.  A batch whose
   processing raises is contained as [Error] in its slot; the worker
   keeps stealing. *)
let steal_batches ?domains ~init ~process batches =
  let n = Array.length batches in
  let domains =
    match domains with Some d -> max 1 d | None -> available_domains ()
  in
  let domains = min domains (max 1 n) in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let run () =
    let state = init () in
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <-
          Some (try Ok (process state batches.(i)) with exn -> Error exn);
        drain ()
      end
    in
    drain ()
  in
  (if n = 0 then ()
   else if domains = 1 then run ()
   else begin
     (* A spawned worker whose [init] fails exits quietly — the queue is
        shared, so survivors absorb its share.  The calling domain's own
        [init] failure is re-raised, after every join. *)
     let spawned =
       List.init (domains - 1) (fun _ ->
           Domain.spawn (fun () -> try run () with _ -> ()))
     in
     let caller = (try run (); None with exn -> Some exn) in
     List.iter Domain.join spawned;
     Option.iter raise caller
   end);
  (* Filled: unless its [init] raised (re-raised above), the calling
     domain drains the queue, and the joins wait for every claimed batch. *)
  Array.map Option.get results
