(* Calibration kernel: a fixed, allocation-free CPU job whose running time
   tracks how fast the host is right now. Every timing the benchmark reports
   is scaled by nominal / kernel time (see [factor]), so when the host slows
   down for a few seconds, the kernel slows with it and the calibrated
   figure stays put.

   The kernel uses nothing from the program under test and allocates
   nothing: an allocating kernel would couple to the program's heap through
   the GC. It sorts a preallocated copy of a scrambled int array in place
   (heap sort, monomorphic int comparisons) and folds an FNV-1a hash over a
   preallocated byte buffer, a few times over. Its working set (32 KiB of
   ints, 8 KiB of bytes) stays in the core's first-level cache: measured on
   a shared 2-vCPU host, such a kernel slowed nearly in step with the
   program, while kernels that spill into the outer caches or memory moved
   less than the program did. *)

let n = 4_096
let reps = 4
let src = Array.init n (fun i -> (i * 2_654_435_761 + 12_345) land 0xFFFFFF)
let work = Array.make n 0
let buf = Bytes.init 8_192 (fun i -> Char.chr ((i * 31 + 7) land 0xff))

let rec sift (a : int array) root stop =
  let child = (2 * root) + 1 in
  if child < stop then begin
    let child =
      if child + 1 < stop && a.(child + 1) > a.(child) then child + 1
      else child
    in
    if a.(child) > a.(root) then begin
      let tmp = a.(root) in
      a.(root) <- a.(child);
      a.(child) <- tmp;
      sift a child stop
    end
  end

let heapsort (a : int array) =
  let len = Array.length a in
  for start = (len / 2) - 1 downto 0 do
    sift a start len
  done;
  for stop = len - 1 downto 1 do
    let tmp = a.(0) in
    a.(0) <- a.(stop);
    a.(stop) <- tmp;
    sift a 0 stop
  done

let fnv (b : Bytes.t) =
  let h = ref 0x0bf29ce484222325 in
  for i = 0 to Bytes.length b - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x100000001b3
  done;
  !h

(* One kernel call. The result is a checksum, so the work cannot be
   optimised away. *)
let run () =
  let acc = ref 0 in
  for _ = 1 to reps do
    Array.blit src 0 work 0 n;
    heapsort work;
    acc := !acc + work.(n / 2) + fnv buf
  done;
  !acc

(* --- calibration series ------------------------------------------------ *)

(* The kernel times of one run, in the order they were taken. An operation
   that ran after [k] samples is calibrated against the median of the two
   samples before it and the two after it, so a change of host speed is
   caught from both sides and a single disturbed sample does not count. *)
type t = {
  nominal_ms : float;
  mutable times : float array;
  mutable n : int;
}

let create ~nominal_ms =
  { nominal_ms; times = Array.make 256 0.; n = 0 }

let time_kernel () =
  let t0 = Obs.Clock.now_ns () in
  ignore (Sys.opaque_identity (run ()));
  Obs.Clock.since_ms t0

(* Run the kernel once and append its time; returns the time. *)
let sample t =
  let ms = time_kernel () in
  if t.n = Array.length t.times then begin
    let bigger = Array.make (2 * t.n) 0. in
    Array.blit t.times 0 bigger 0 t.n;
    t.times <- bigger
  end;
  t.times.(t.n) <- ms;
  t.n <- t.n + 1;
  ms

let count t = t.n

let median_of a =
  Array.sort Float.compare a;
  let n = Array.length a in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Factor turning a raw duration measured after [k] samples into calibrated
   time: nominal / kernel, so timings taken while the kernel runs 1.2x
   slower are divided by 1.2. Uses the samples that exist so far when
   called early. *)
let factor t k =
  let lo = max 0 (k - 2) and hi = min (t.n - 1) (k + 1) in
  if hi < lo then invalid_arg "Calib.factor: no kernel sample yet";
  t.nominal_ms /. median_of (Array.sub t.times lo (hi - lo + 1))

let samples t = Array.to_list (Array.sub t.times 0 t.n)
