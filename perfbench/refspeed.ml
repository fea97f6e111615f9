(* The host-speed reference: a fixed computation that uses no code of
   the repository, timed next to every measured interval.

   On a shared host the CPU speed drifts by tens of percent over tens of
   seconds, and the process's CPU time slows as much as its wall time,
   so neither can be filtered from the program's side.  Dividing a time
   by the reference time measured next to it cancels the drift: the
   median iteration of a window by the median of the reference times
   taken between its iterations, a set-up by the median of those taken
   just before and just after it.  The quotient is scaled back to
   seconds by [nominal_s], the reference's typical time on the host the
   benchmark was calibrated on (a 2-vCPU Xeon VM), so a normalised time
   reads as seconds on that host.

   The kernel builds a 100 000-entry balanced tree (Map): short-lived
   and promoted allocation and pointer chasing, the mix the compiler
   passes and the sweep's bookkeeping have.  A pure arithmetic loop was
   tried first and tracked the host badly: contention on the physical
   core halved or doubled its time while the workloads moved by a
   third.  Each sample runs after a full collection, so the workload's
   garbage is not charged to it. *)

module M = Map.Make (Int)

let nominal_s = 0.12

let kernel () =
  let m = ref M.empty in
  for i = 0 to 99_999 do
    m := M.add ((i * 7919) land 0xfffff) i !m
  done;
  ignore (Sys.opaque_identity (M.cardinal !m))

(* One reference time, in seconds: [jobs] domains running the kernel at
   once, as a pool of that width runs the workload. *)
let sample ~jobs =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let others = List.init (jobs - 1) (fun _ -> Domain.spawn kernel) in
  kernel ();
  List.iter Domain.join others;
  Unix.gettimeofday () -. t0

(* Three reference times: a single one moves by a fifth with the
   host's second-to-second noise, which a long iteration averages out.
   A fixed count keeps the run's allocation, and so its heap, the same
   from run to run. *)
let samples ~jobs = List.init 3 (fun _ -> sample ~jobs)

(* [raw] seconds measured where the reference took [reference] seconds,
   in seconds on the reference host. *)
let normalise ~reference raw = raw *. nominal_s /. reference
