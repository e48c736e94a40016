(* Host-speed correction of measured times.

   The benchmark runs on shared virtual machines whose speed drifts by
   tens of percent over tens of seconds, as other tenants compete for
   the caches and memory of the same cores.  On a 2-core Xeon VM, a fixed
   loop timed over a minute varied by 30% between five-second blocks;
   run-to-run spreads of raw sweep throughput reached 0.3.

   So the sweeps time a fixed reference kernel — inserts and lookups in
   an open-addressing integer table as large as a big BDD unique table —
   between the intervals they measure, and scale each interval by
   [reference_s] over the kernel times around it: the time the interval
   would have taken at the speed the host had when [reference_s] was
   measured.  Over ten runs on that VM, this cut the spread of the c1908
   sweep's throughput from 0.22 to 0.07.  The kernel shares no code with
   lib/, and its table lives outside the OCaml heap, so neither the
   workload's heap nor the garbage collector changes its time. *)

let now = Trace.now

(* The kernel's median time over 300 runs in a minute, with no workload
   running, on the VM the bounds in BENCHMARK.json were set on (2 cores,
   Xeon, 2.1 GHz). *)
let reference_s = 0.0143

let slots = 1 lsl 21
let table = lazy (Bigarray.Array1.create Bigarray.int Bigarray.c_layout slots)

let kernel () =
  let t = Lazy.force table in
  Bigarray.Array1.fill t 0;
  let mask = slots - 1 in
  let x = ref 88172645463325252 and found = ref 0 in
  for _ = 1 to 300_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let key = (!x land ((slots / 2) - 1)) + 1 in
    let rec probe h =
      let v = Bigarray.Array1.unsafe_get t h in
      if v = key then incr found
      else if v = 0 then Bigarray.Array1.unsafe_set t h key
      else probe ((h + 1) land mask)
    in
    probe ((key * 0x9E3779B1) land mask)
  done;
  !found

(* The kernel's runs over one workload run: (start, stop), newest first.
   An inactive timeline never runs the kernel and scales nothing; the
   traced run uses one, since its layer shares need no correction. *)
type t = { active : bool; mutable probes : (float * float) list }

let create ~active = { active; probes = [] }

let probe t =
  if t.active then begin
    let start = now () in
    ignore (Sys.opaque_identity (kernel ()));
    t.probes <- (start, now ()) :: t.probes
  end

let probe_if_due t ~every =
  match t.probes with (_, stop) :: _ when now () -. stop < every -> () | _ -> probe t

(* The median kernel time of a workload run, on stderr. *)
let log t workload =
  if t.probes <> [] then
    Printf.eprintf "%s: host-speed kernel median %.2f ms over %d runs (reference %.2f ms)\n%!"
      workload
      (Stats.median (List.map (fun (a, b) -> b -. a) t.probes) *. 1e3)
      (List.length t.probes) (reference_s *. 1e3)

(* [scale t] maps an interval [a, b] to its corrected duration: the
   part of it outside the kernel's runs, each piece between two runs
   multiplied by [reference_s] over the mean of those two runs' times
   (before the first run or after the last, that run's time alone).
   Take it once every interval to be corrected has its closing run. *)
let scale t =
  let ps = Array.of_list (List.rev t.probes) in
  let n = Array.length ps in
  if n = 0 then fun (a, b) -> b -. a
  else begin
    let dur i = snd ps.(i) -. fst ps.(i) in
    let factor k =
      reference_s
      /. if k = 0 then dur 0 else if k = n then dur (n - 1) else (dur (k - 1) +. dur k) /. 2.
    in
    let factors = Array.init (n + 1) factor in
    fun (a, b) ->
      let total = ref 0. in
      for k = 0 to n do
        let lo = if k = 0 then neg_infinity else snd ps.(k - 1) in
        let hi = if k = n then infinity else fst ps.(k) in
        let overlap = Float.min b hi -. Float.max a lo in
        if overlap > 0. then total := !total +. (overlap *. factors.(k))
      done;
      !total
  end
