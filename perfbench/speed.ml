(* Host speed, measured next to the timed work.

   The benchmark's host is a few virtual CPUs of a shared machine whose
   speed has been seen to change 2.5x between runs minutes apart: other
   guests load the host, and the hypervisor takes CPU time from this
   one. No run length averages that out, so the gated times are scaled
   to a reference speed. Between its timed units a run times a fixed
   kernel — integer arithmetic and random read-modify-writes over
   2 MiB, sharing no code with the program and allocating nothing —
   once on one domain and once on every domain at once, and reports

     scaled = wall * reference_s / mean kernel time

   with the kernel that matches the work ({!scale}). A program twice as
   slow doubles its scaled time; a host twice as slow for the whole run
   leaves it where it was. The raw wall times are printed beside the
   scaled ones. *)

let words = 1 lsl 18
let iterations = 2_000_000

let kernel buf =
  let x = ref 0x5DEECE66D and acc = ref 1 in
  for i = 1 to iterations do
    x := (!x * 25214903917 + 11) land 0xFFFFFFFFFFFF;
    let k = (!x lsr 16) land (words - 1) in
    buf.(k) <- buf.(k) + i;
    acc := ((!acc * 3) + (!x lsr 20)) mod 1_000_003
  done;
  !acc

let domains = Domain.recommended_domain_count ()
let buffers = lazy (Array.init domains (fun _ -> Array.make words 0))

(* The kernel on [n] domains at once, each on a buffer of its own. *)
let kernel_on n =
  let bufs = Lazy.force buffers in
  let t0 = Clock.now () in
  let others = List.init (n - 1) (fun d -> Domain.spawn (fun () -> kernel bufs.(d + 1))) in
  let mine = kernel bufs.(0) in
  ignore (Sys.opaque_identity (List.fold_left (fun a d -> a + Domain.join d) mine others));
  Clock.now () -. t0

(* Which kernel scales a time: [Serial] for work that runs on one
   domain at a time, [Parallel] for work spread over all of them. *)
type kernel = Serial | Parallel

(* How a time is scaled. A long unit (a pass, a cold phase) or a time
   pooled over a run takes the host's slow stretches with it, as does
   the mean kernel sample: [Average]. Set-ups are not scaled: steps of a millisecond or
   less did not slow with the host, and scaling them only added the
   kernel's own noise. [Unscaled] is for serve's hot requests' median: a
   memory-tier hit is a ~60 us socket round trip, timed by the
   operating system's wake-ups, and it stayed within a few per cent
   while the kernels slowed twofold. *)
type scale = Average of kernel | Unscaled

(* The kernels' times on the reference host, a quiet 2-vCPU virtual
   machine: there a scaled time is close to the wall time. *)
let reference_s = function Serial -> 0.019 | Parallel -> 0.023

let serial = ref [] and parallel = ref []

(* One sample of each kernel; a run takes one between its timed units. *)
let sample () =
  serial := kernel_on 1 :: !serial;
  parallel := kernel_on domains :: !parallel

let samples = function Serial -> !serial | Parallel -> !parallel

(* The factor that scales the run's wall times. *)
let factor = function
  | Average k -> reference_s k /. Stats.mean (samples k)
  | Unscaled -> 1.
