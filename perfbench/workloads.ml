(* The three workloads. Each draws its operations from the seed; the
   document itself is the fixed XMark dataset at the workload's scale, so a
   seed changes what is asked, not what is stored. *)

open Lanes
module T = Xmllib.Types

let oracle idx xpath =
  O.Dom_eval.eval_union idx (O.Xpath_parser.parse_union xpath)

(* A read request with its oracle answer, before it is bound to a lane. *)
type expect =
  | Ids of int list  (** [query_ids], in document order *)
  | Text of int * string  (** the one id the XPath selects, serialized *)

type read = { label : string; xpath : string; expect : expect }

let bind lanes lane r =
  let run =
    match r.expect with
    | Ids ids -> fun () -> Store.query_ids lanes.(lane).store r.xpath = ids
    | Text (id, text) -> (
        fun () ->
          let store = lanes.(lane).store in
          match Store.query_ids store r.xpath with
          | [ got ] when got = id ->
              (* the program does not span [serialize]; time it from here *)
              Obs.Span.with_ "reconstruct" (fun () -> Store.serialize store ~id)
              = text
          | _ -> false)
  in
  Op { lane; label = r.label; run }

(* Every read on every lane, in a seeded shuffled order. *)
let read_round lanes rng reads =
  let pairs =
    Array.concat
      (List.map (fun r -> Array.init n_lanes (fun lane -> (lane, r))) reads)
  in
  shuffle rng pairs;
  Array.map (fun (lane, r) -> bind lanes lane r) pairs

(* Oracle answers, memoised by XPath text. *)
let reader idx =
  let cache = Hashtbl.create 64 in
  let answer xpath =
    match Hashtbl.find_opt cache xpath with
    | Some ids -> ids
    | None ->
        let ids = oracle idx xpath in
        Hashtbl.add cache xpath ids;
        ids
  in
  let ids label xpath = { label; xpath; expect = Ids (answer xpath) } in
  let serialized label xpath =
    match answer xpath with
    | [ id ] ->
        let text = Xmllib.Printer.node_to_string (O.Doc_index.to_node idx id) in
        { label; xpath; expect = Text (id, text) }
    | _ -> invalid_arg ("serialize target is not one node: " ^ xpath)
  in
  (ids, serialized, fun () -> Hashtbl.length cache)

let cycle rounds r = rounds.(r mod Array.length rounds)

(* --- read-hot ----------------------------------------------------------- *)

(* Q1-Q7 through [query_ids] and Q8 through [serialize], on every lane:
   8 texts per lane, well inside the 128-entry plan cache. *)
let read_hot_build ~seed doc lanes =
  let ids, serialized, distinct = reader (O.Doc_index.build doc) in
  let reads =
    List.map
      (fun (q : O.Workload.query) ->
        match q.q_xpath with
        | Some xpath -> ids q.q_id xpath
        | None -> serialized q.q_id O.Workload.q8_target)
      O.Workload.queries
  in
  let rng = Random.State.make [| seed; 1 |] in
  let rounds = Array.init 32 (fun _ -> read_round lanes rng reads) in
  { round = cycle rounds; distinct_texts = distinct (); expected_root = None }

let read_hot =
  {
    name = "read-hot";
    scale = 4;
    setup_reps = 5;
    recovery_reps = 9;
    pass_rounds = 8;
    calib_every = 24;
    build = read_hot_build;
  }

(* --- read-varied -------------------------------------------------------- *)

let regions = [| "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" |]

(* Q2/Q4/Q5/Q6/Q7-shaped templates with seeded literals, plus a seeded
   open_auction pick that is serialized. Literal ranges follow the
   generator's shape at [scale]. *)
let read_varied_build ~scale ~seed doc lanes =
  let ids, serialized, distinct = reader (O.Doc_index.build doc) in
  let rng = Random.State.make [| seed; 2 |] in
  let n_open = 12 * scale and n_items = 10 * scale in
  let bidders = "/site/open_auctions/open_auction/bidder" in
  (* Literals are drawn stratified: within each block of [block] rounds,
     every template takes one value from each of [block] equal slices of
     its range, in a seeded order. Any run of whole blocks then covers each
     range evenly, whatever the seed, so seeds change the texts asked but
     not the mix of cheap and costly instances. *)
  let block = 8 in
  let strata lo hi =
    let a =
      Array.init block (fun i ->
          let span = float_of_int (hi - lo + 1) /. float_of_int block in
          lo
          + int_of_float
              ((float_of_int i +. Random.State.float rng 1.) *. span))
    in
    shuffle rng a;
    a
  in
  let instances () =
    let q2 = strata 1 10 and q4 = strata 1 6 and q4w = strata 1 4
    and q5 = strata 1 9 and q6 = strata 9000 120000
    and q7r = strata 0 5 and q7 = strata 1 n_items and q8 = strata 1 n_open in
    List.init block (fun i ->
        [
          ids "Q2" (Printf.sprintf "%s[%d]" bidders q2.(i));
          ids "Q4"
            (Printf.sprintf "%s[position() >= %d and position() <= %d]"
               bidders q4.(i)
               (q4.(i) + q4w.(i)));
          ids "Q5"
            (Printf.sprintf "%s[%d]/following-sibling::bidder" bidders q5.(i));
          ids "Q6" (Printf.sprintf "//person[profile/@income > %d]/name" q6.(i));
          ids "Q7"
            (Printf.sprintf "/site/regions/%s/item[%d]/following::item"
               regions.(q7r.(i)) q7.(i));
          serialized "Q8"
            (Printf.sprintf "/site/open_auctions/open_auction[%d]" q8.(i));
        ])
  in
  let rounds =
    List.concat (List.init 6 (fun _ -> instances ()))
    |> List.map (read_round lanes rng)
    |> Array.of_list
  in
  { round = cycle rounds; distinct_texts = distinct (); expected_root = None }

let read_varied =
  {
    name = "read-varied";
    scale = 16;
    setup_reps = 5;
    recovery_reps = 7;
    pass_rounds = 8;
    calib_every = 6;
    build = (fun ~seed -> read_varied_build ~scale:16 ~seed);
  }

(* --- edit-durable ------------------------------------------------------- *)

let auctions_path = "/site/open_auctions"
let auction k = Printf.sprintf "%s/open_auction[%d]" auctions_path k

let is_tag tag = function T.Element e -> e.T.tag = tag | _ -> false

let children_named tag (e : T.element) = List.filter (is_tag tag) e.T.children

let set_current v = function
  | T.Element e ->
      T.Element
        {
          e with
          T.children =
            List.map
              (function
                | T.Element c when c.T.tag = "current" ->
                    T.Element { c with T.children = [ T.Text v ] }
                | n -> n)
              e.T.children;
        }
  | n -> n

let insert_at a i x =
  Array.concat [ Array.sub a 0 i; [| x |]; Array.sub a i (Array.length a - i) ]

let remove_at a i =
  Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (Array.length a - i - 1))

type edit_params = {
  where : O.Workload.position;
  frag : T.node;
  frag_rows : int;
  text_pick : int;  (* 1-based, among the auctions after the insert *)
  text : string;
  orders : int array array;  (* lane order for each of the three steps *)
}

(* Each round is insert / set_text / delete, and each of the three is one
   operation per lane in a seeded lane order. An insert puts a seeded
   open_auction at the front, middle or back of /site/open_auctions; the
   delete removes that node again, so the document stays level. Every
   operation issues the lookups an editor would, and every answer is
   checked against an in-memory mirror of the auction list. *)
let edit_durable_build ~seed (doc : T.document) lanes =
  let rng = Random.State.make [| seed; 3 |] in
  let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let open_auctions e =
    match children_named "open_auctions" e with
    | [ T.Element oa ] -> oa
    | _ -> invalid_arg "document has no single open_auctions"
  in
  (* the inserted auctions come from one fixed scale-1 document, so the
     seed orders them but does not change their sizes *)
  let frags =
    let src = Xmllib.Generator.xmark ~seed:7 ~scale:1 () in
    Array.of_list (open_auctions src.T.root).T.children
  in
  let rows_of f = O.Doc_index.length (O.Doc_index.build (T.doc_of_node f)) in
  let mirror = ref (Array.of_list (open_auctions doc.T.root).T.children) in
  let order () =
    let a = Array.init n_lanes Fun.id in
    shuffle rng a;
    a
  in
  (* Every three consecutive rounds insert once at each position, and
     every [Array.length frags] rounds insert each fragment once. *)
  let permutations n k =
    Array.concat
      (List.init k (fun _ ->
           let a = Array.init n Fun.id in
           shuffle rng a;
           a))
  in
  let wheres = permutations 3 24 and picks = permutations (Array.length frags) 6 in
  let positions = Array.of_list O.Workload.positions in
  let params =
    Array.init (Array.length wheres) (fun r ->
        let frag = frags.(picks.(r)) in
        {
          where = positions.(wheres.(r));
          frag;
          frag_rows = rows_of frag;
          text_pick = int 1 (Array.length !mirror + 1);
          text = Printf.sprintf "%d.%02d" (int 10 999) (int 0 99);
          orders = [| order (); order (); order () |];
        })
  in
  let inserted = Array.make n_lanes (-1) in
  let insert_pos = ref 0 in
  let insert p lane () =
    let l = lanes.(lane) and n = Array.length !mirror in
    match Store.query_ids l.store auctions_path with
    | [ parent ] ->
        let count = Store.count l.store (auctions_path ^ "/open_auction") in
        let pos = O.Workload.insertion_pos p.where ~sibling_count:count in
        let label = "insert-" ^ O.Workload.position_name p.where in
        let st = Store.insert_subtree l.store ~parent ~pos p.frag in
        note_update l label st;
        inserted.(lane) <-
          (match Store.query_ids l.store (auction pos) with
          | [ id ] -> id
          | _ -> -1);
        insert_pos := pos;
        count = n && st.O.Update.rows_inserted = p.frag_rows
        && inserted.(lane) >= 0
    | _ -> false
  in
  let set_text p lane () =
    let l = lanes.(lane) in
    match Store.query_ids l.store (auction p.text_pick ^ "/current/text()") with
    | [ id ] ->
        note_update l "set_text" (Store.set_text l.store ~id p.text);
        Store.query_values l.store (auction p.text_pick ^ "/current")
        = [ p.text ]
    | _ -> false
  in
  let delete p lane () =
    let l = lanes.(lane) in
    let id = inserted.(lane) in
    id >= 0
    &&
    let st = Store.delete_subtree l.store ~id in
    note_update l "delete" st;
    inserted.(lane) <- -1;
    st.O.Update.rows_deleted = p.frag_rows
    && Store.count l.store (auctions_path ^ "/open_auction")
       = Array.length !mirror - 1
  in
  let step p k label run sync =
    Array.append
      (Array.map (fun lane -> Op { lane; label; run = run p lane }) p.orders.(k))
      [| Sync sync |]
  in
  let round r =
    let p = params.(r mod Array.length params) in
    Array.concat
      [
        step p 0 ("insert-" ^ O.Workload.position_name p.where) insert
          (fun () -> mirror := insert_at !mirror (!insert_pos - 1) p.frag);
        step p 1 "set_text" set_text (fun () ->
            let i = p.text_pick - 1 in
            !mirror.(i) <- set_current p.text !mirror.(i));
        step p 2 "delete" delete (fun () ->
            mirror := remove_at !mirror (!insert_pos - 1));
      ]
  in
  let expected_root () =
    let root = doc.T.root in
    Xmllib.Printer.node_to_string
      (T.Element
         {
           root with
           T.children =
             List.map
               (function
                 | T.Element e when e.T.tag = "open_auctions" ->
                     T.Element { e with T.children = Array.to_list !mirror }
                 | n -> n)
               root.T.children;
         })
  in
  let texts = Hashtbl.create 64 in
  let n = Array.length !mirror in
  Array.iter
    (fun p ->
      let pos = O.Workload.insertion_pos p.where ~sibling_count:n in
      List.iter
        (fun t -> Hashtbl.replace texts t ())
        [
          auctions_path;
          auctions_path ^ "/open_auction";
          auction pos;
          auction p.text_pick ^ "/current/text()";
          auction p.text_pick ^ "/current";
        ])
    params;
  {
    round;
    distinct_texts = Hashtbl.length texts;
    expected_root = Some expected_root;
  }

let edit_durable =
  {
    name = "edit-durable";
    scale = 2;
    setup_reps = 5;
    recovery_reps = 9;
    pass_rounds = 12;
    calib_every = 9;
    build = edit_durable_build;
  }

let all = [ read_hot; read_varied; edit_durable ]
