(* Lanes (one durable store per encoding), the operation model shared by
   the workloads, and small helpers. *)

module O = Ordered_xml
module Store = O.Api.Store
module Db = Reldb.Db

let encodings = [| O.Encoding.Global; O.Encoding.Local; O.Encoding.Dewey_enc |]
let enc_names = Array.map O.Encoding.name encodings
let n_lanes = Array.length encodings
let store_name = "doc"

type lane = {
  enc : O.Encoding.t;
  dir : string;
  mutable store : Store.t;
  (* per-label [Update.stats] totals, filled in by the edit operations *)
  upd : (string, O.Update.stats) Hashtbl.t;
}

let db l = Store.db l.store

let note_update lane label (st : O.Update.stats) =
  let prev =
    Option.value (Hashtbl.find_opt lane.upd label)
      ~default:
        {
          O.Update.rows_inserted = 0;
          rows_deleted = 0;
          rows_renumbered = 0;
          statements = 0;
        }
  in
  Hashtbl.replace lane.upd label
    {
      O.Update.rows_inserted = prev.rows_inserted + st.rows_inserted;
      rows_deleted = prev.rows_deleted + st.rows_deleted;
      rows_renumbered = prev.rows_renumbered + st.rows_renumbered;
      statements = prev.statements + st.statements;
    }

(* One user request against one lane: [run] returns whether the answer was
   right (an exception is a failure too). [Sync] is untimed bookkeeping
   between requests, such as advancing the edit mirror. *)
type step =
  | Op of { lane : int; label : string; run : unit -> bool }
  | Sync of (unit -> unit)

(* What a workload hands [Xbench] once the stores exist. *)
type plan = {
  round : int -> step array;  (* round [r] of the generated sequence *)
  distinct_texts : int;  (* distinct XPath texts per lane *)
  expected_root : (unit -> string) option;
      (* serialized root the stores must hold, for workloads that edit *)
}

type spec = {
  name : string;
  scale : int;  (* XMark scale of the document *)
  setup_reps : int;
  recovery_reps : int;
  pass_rounds : int;  (* rounds in the counted pass and in the traced pass *)
  calib_every : int;  (* operations between two kernel samples *)
  build : seed:int -> Xmllib.Types.document -> lane array -> plan;
}

(* The fsync policy of [oxq --db]: [Db.open_dir]'s default, stated here so
   that a change of default does not silently change the benchmark. *)
let open_db dir = Db.open_dir ~fsync:(Reldb.Wal.Every 32) dir

(* Generate the document and shred it into a fresh durable store per
   encoding under [root]. *)
let setup ~root ~scale =
  let doc = O.Workload.dataset ~scale in
  let lanes =
    Array.mapi
      (fun i enc ->
        let dir = Filename.concat root enc_names.(i) in
        let store = Store.create (open_db dir) ~name:store_name enc doc in
        { enc; dir; store; upd = Hashtbl.create 8 })
      encodings
  in
  (doc, lanes)

let close_all lanes = Array.iter (fun l -> Db.close (db l)) lanes

let root_string store =
  Xmllib.Printer.node_to_string
    (Xmllib.Types.Element (Store.document store).Xmllib.Types.root)

(* --- helpers ------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let median = function [] -> nan | xs -> Calib.median_of (Array.of_list xs)

(* nearest-rank percentile *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))
