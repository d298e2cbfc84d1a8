(* Calibration guard: one call of the calibration kernel allocates zero
   words, so running it between operations cannot disturb the program's
   heap. Exits non-zero on failure. *)

let words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

let () =
  ignore (Calib.run ());
  let baseline = words (fun () -> 0) in
  let kernel = words Calib.run in
  let extra = kernel -. baseline in
  Printf.printf "calibration kernel: %.0f words allocated per call\n" extra;
  if extra <> 0. then exit 1
