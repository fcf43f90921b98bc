(* Running a plan: each operation is timed around calls into the public
   functions of lib/ (one-shot CLI paths) or into
   [Serve.Server.handle_line] (one client, one domain), and its outputs
   are checked against computations made apart from the program.

   Checks run outside the timed window.  The first run of each round of
   the period checks every output against an independent computation
   (deferred until the timed operations are over); later runs of that
   round repeat the same requests, so their cache-invariant outputs
   must be byte-equal to the checked ones. *)

module Json = Argus_json.Json
module Rpc = Argus_json.Rpc
module PT = Argus.Proof_tree
module VS = Argus.View_state
module Obl = Solver.Obligations

(* ------------------------------------------------------------------ *)
(* Shared pipeline pieces *)

(* The state of a freshly started process: what [argus check] sees. *)
let fresh () =
  Trait_lang.Interner.clear ();
  Solver.Eval_cache.clear ();
  Solver.Fast_reject.clear ();
  Journal.reset ();
  Solver.Infer_ctx.reset_snapshot_serial ()

let with_switches ~cache ~index f =
  let c = Solver.Eval_cache.enabled () and i = Solver.Fast_reject.enabled () in
  Solver.Eval_cache.set_enabled cache;
  Solver.Fast_reject.set_enabled index;
  Fun.protect
    ~finally:(fun () ->
      Solver.Eval_cache.set_enabled c;
      Solver.Fast_reject.set_enabled i)
    f

let file_of (s : Inputs.source) = s.name ^ ".rs"

let failing_trees (report : Obl.report) =
  List.filter_map
    (fun (r : Obl.goal_report) ->
      if r.status <> Obl.Proved then Some (Argus.Extract.of_report r) else None)
    report.reports

let tree_page trees =
  String.concat ""
    (List.map (fun t -> Argus.Render.tree_to_string ~direction:VS.Bottom_up t ^ "\n\n") trees)

(* The row a client clicks: [pick] counted from the end when negative,
   row 0 on a view it has not seen yet. *)
let row_of ~rows pick =
  if rows <= 0 then 0 else if pick < 0 then max 0 (rows + pick) else pick mod rows

(* One click on a view: the state transition the serve [expand]/[hover]
   verbs and [argus interactive] apply to the addressed row. *)
let click vs ~row ~hover =
  match List.find_opt (fun (l : Argus.Render.line) -> l.index = row) (Argus.Render.view vs) with
  | None -> None
  | Some l ->
      if l.node = Argus.Render.others_row then Some (VS.toggle_others vs)
      else Some ((if hover then VS.hover else VS.expand) vs l.node)

(* argus check FILE *)
let cli_check ~file text =
  let program = Inputs.parse ~file text in
  let report = Obl.solve_program program in
  let out, _ = Serve.Check_render.run program report in
  (report, out)

(* argus bottom-up FILE *)
let cli_tree ~file text =
  let program = Inputs.parse ~file text in
  tree_page (failing_trees (Obl.solve_program program))

(* one click in argus interactive, on the view of an extracted tree *)
let cli_view tree ~pick =
  let vs = VS.create tree in
  let rows = List.length (Argus.Render.view vs) in
  match click vs ~row:(row_of ~rows pick) ~hover:false with
  | Some vs -> Argus.Render.to_string vs
  | None -> failwith "no such row"

(* argus explain EVENTS.jsonl *)
let cli_explain events =
  let entries = Argus_json.Journal_codec.of_jsonl events in
  match Journal.replay entries with
  | Ok tree -> Serve.Explain_render.summary ~entries:(List.length entries) tree
  | Error m -> failwith ("inconsistent journal: " ^ m)

(* A cache- and index-off solve of a fresh parse: the reference every
   cache-invariant output is checked against. *)
let scratch ~file text =
  with_switches ~cache:false ~index:false (fun () ->
      Journal.reset ();
      Solver.Infer_ctx.reset_snapshot_serial ();
      let program = Inputs.parse ~file text in
      let report = Obl.solve_program program in
      (report, Serve.Check_render.run program report))

(* ------------------------------------------------------------------ *)
(* Requests *)

let sess_name s = Printf.sprintf "s%d" s

(* Request ids repeat every round, so repeated responses are
   byte-comparable. *)
let rid pos j = (pos * 2) + j + 1

let req ~id m params =
  Rpc.request_to_line
    { Rpc.rpc_id = Some (Rpc.Int_id id); rpc_method = m; rpc_params = Some (Json.Obj params) }

let result_prefix id =
  let s = Rpc.response_to_line (Rpc.ok (Rpc.Int_id id) Json.Null) in
  String.sub s 0 (String.length s - String.length "null}")

(* ------------------------------------------------------------------ *)
(* Client state *)

type session_ref = { mutable trees : PT.t array; views : (int, VS.t) Hashtbl.t }

type t = {
  plan : Plan.t;
  server : Serve.Server.t;
  cur : int array;  (** the source each session holds *)
  rows : (int * int, int) Hashtbl.t;  (** (session, goal) -> rows last seen *)
  refs : session_ref array;
  held : PT.t option array;  (** cli: first failing tree per source *)
  events : (string * Journal.entry list) option array;  (** cli: journal per source *)
  digests : (int * int * int, Digest.t) Hashtbl.t;
      (** (round of the period, position, request) of checked outputs *)
  mutable pending : (unit -> unit) list;  (** deferred checks, newest first *)
  mutable problems : string list;
  mutable n_problems : int;
}

let problem t msg =
  t.n_problems <- t.n_problems + 1;
  if t.n_problems <= 5 then t.problems <- msg :: t.problems

let request_lines t pos (op : Plan.op) =
  let s n = ("session", Json.String (sess_name n)) in
  let text i = t.plan.sources.(i).Inputs.text in
  match op with
  | Cli _ | Cli_tree _ | Cli_view _ | Cli_explain _ -> []
  | Load { sess; src } ->
      [
        req ~id:(rid pos 0) "reload" [ s sess; ("source", Json.String (text src)) ];
        req ~id:(rid pos 1) "solve" [ s sess ];
      ]
  | Same { sess } ->
      [ req ~id:(rid pos 0) "reload" [ s sess; ("source", Json.String (text t.cur.(sess))) ] ]
  | Tree { sess } -> [ req ~id:(rid pos 0) "tree" [ s sess ] ]
  | Click { sess; goal; hover; pick } ->
      let rows = Option.value ~default:0 (Hashtbl.find_opt t.rows (sess, goal)) in
      [
        req ~id:(rid pos 0)
          (if hover then "hover" else "expand")
          [ s sess; ("goal", Json.Int goal); ("row", Json.Int (row_of ~rows pick)) ];
      ]
  | Explain { sess; failures } ->
      [ req ~id:(rid pos 0) "explain" [ s sess; ("failures", Json.Bool failures) ] ]

(* ------------------------------------------------------------------ *)
(* Set-up *)

(* A session's set-up requests: open, then a solve and a tree page as
   warm-up. *)
let warm_up (plan : Plan.t) sess src =
  let s = ("session", Json.String (sess_name sess)) in
  [
    req ~id:0 "open" [ s; ("source", Json.String plan.sources.(src).text) ];
    req ~id:0 "solve" [ s ];
    req ~id:0 "tree" [ s ];
  ]

let create ?(open_sessions = true) (plan : Plan.t) =
  let n = Array.length plan.sources in
  let t =
    {
      plan;
      server = Serve.Server.create ();
      cur = Array.copy plan.opened;
      rows = Hashtbl.create 16;
      refs = Array.map (fun _ -> { trees = [||]; views = Hashtbl.create 4 }) plan.opened;
      held = Array.make n None;
      events = Array.make n None;
      digests = Hashtbl.create 256;
      pending = [];
      problems = [];
      n_problems = 0;
    }
  in
  (* one-shot CLI inputs: the tree an interactive session clicks on and
     the journal an explain call reads, as argus check --events-out
     writes it *)
  Array.iteri
    (fun i (src : Inputs.source) ->
      let uses = function Plan.Cli_view { src = j; _ } | Cli_explain j -> i = j | _ -> false in
      if Array.exists (Array.exists uses) plan.period then begin
        fresh ();
        let (report, _), entries =
          Journal.with_memory_sink (fun () -> cli_check ~file:(file_of src) src.text)
        in
        let entries = List.map (fun (e : Journal.entry) -> { e with Journal.ts_ns = 0 }) entries in
        t.held.(i) <- (match failing_trees report with tr :: _ -> Some tr | [] -> None);
        t.events.(i) <- Some (Argus_json.Journal_codec.to_jsonl entries, entries)
      end)
    plan.sources;
  if open_sessions then
    Array.iteri
      (fun sess src ->
        List.iter (fun l -> ignore (Serve.Server.handle_line t.server l)) (warm_up plan sess src))
      plan.opened;
  t

(* ------------------------------------------------------------------ *)
(* Executing one operation (the timed part) *)

type result =
  | Responses of string list
  | Checked of Obl.report * string  (** an [argus check] report and its rendering *)
  | Text of string

let execute t (op : Plan.op) lines =
  let src i = t.plan.sources.(i) in
  match op with
  | Cli i ->
      let report, out = cli_check ~file:(file_of (src i)) (src i).text in
      Checked (report, out)
  | Cli_tree i -> Text (cli_tree ~file:(file_of (src i)) (src i).text)
  | Cli_view { src = i; pick } -> Text (cli_view (Option.get t.held.(i)) ~pick)
  | Cli_explain i -> Text (cli_explain (fst (Option.get t.events.(i))))
  | Load _ | Same _ | Tree _ | Click _ | Explain _ ->
      let send l = Option.value ~default:"" (Serve.Server.handle_line t.server l) in
      Responses (List.map send lines)

(* An operation's output digest, for comparing two runs of it; a digest
   of digests, so no copy of a large response is made. *)
let digest_of = function
  | Responses rs -> Digest.string (String.concat "" (List.map Digest.string rs))
  | Checked (_, out) -> Digest.string out
  | Text s -> Digest.string s

(* Did the operation fail?  A serve request fails when its response is
   not a JSON-RPC result for its id. *)
let failed pos = function
  | Responses rs ->
      List.mapi (fun j r -> String.starts_with ~prefix:(result_prefix (rid pos j)) r) rs
      |> List.exists not
  | Checked _ | Text _ -> false

(* ------------------------------------------------------------------ *)
(* Checks *)

let result_of line =
  match Rpc.response_of_line line with
  | Ok { Rpc.resp_result = Ok v; _ } -> Some v
  | _ -> None

(* The first time a round of the period runs, its outputs are checked;
   later runs of that round must repeat them byte for byte.  The
   checks themselves are deferred to [verify], after the timed
   operations, so the garbage their reference computations leave does
   not land on the timed operations' collector.  A deferred check gets
   the digest of the output and compares it with the digest of the
   output it computes independently. *)
let same_as_first t ~round ~key:(pos, j) ~what s check =
  let plen = Array.length t.plan.period in
  let key = (round mod plen, pos, j) and d = Digest.string s in
  if round < plen then begin
    Hashtbl.replace t.digests key d;
    t.pending <- (fun () -> check d) :: t.pending
  end
  else
    match Hashtbl.find_opt t.digests key with
    | Some d0 when Digest.equal d d0 -> ()
    | _ -> problem t (what ^ ": output differs from the checked first run of its round")

let verify t =
  List.iter (fun check -> check ()) (List.rev t.pending);
  t.pending <- []

let matches d expected = Digest.equal d (Digest.string expected)

(* The response line the server must have sent for [payload]. *)
let response ~id payload = Rpc.response_to_line (Rpc.ok (Rpc.Int_id id) payload)

let check_cli_report t (s : Inputs.source) (report : Obl.report) =
  let statuses = List.map (fun (r : Obl.goal_report) -> r.status) report.reports in
  match s.expect with
  | Inputs.Root_cause e ->
      let rc = Corpus.Harness.root_cause_pred e in
      let has_leaf tree =
        List.exists
          (fun (n : PT.node) ->
            match n.kind with
            | PT.Goal g -> Trait_lang.Predicate.equal g.pred rc
            | PT.Cand _ -> false)
          (PT.failed_leaves tree)
      in
      if not (List.exists has_leaf (failing_trees report)) then
        problem t (s.name ^ ": no failing goal has the annotated root cause as a leaf")
  | All_proved ->
      if List.exists (fun st -> st <> Obl.Proved) statuses then
        problem t (s.name ^ ": a goal of a well-typed program does not prove")
  | Mega goals ->
      let expected i = if i mod 4 = 1 then Obl.Disproved else Obl.Proved in
      if statuses <> List.init goals expected then
        problem t (s.name ^ ": a goal's verdict differs from its generator class")
  | Scratch | Deep _ -> ()

let check_deep t d (report : Obl.report) =
  let statuses = List.map (fun (r : Obl.goal_report) -> r.status) report.reports in
  if statuses <> [ Obl.Disproved ] then
    problem t (Printf.sprintf "deep-%d: verdict is not disproved" d)
  else
    let tree = List.hd (failing_trees report) in
    if PT.goal_count tree <> Inputs.deep_goals d then
      problem t
        (Printf.sprintf "deep-%d: %d goals, F(d+4)-2 = %d" d (PT.goal_count tree)
           (Inputs.deep_goals d));
    let leaves =
      List.filter_map
        (fun n ->
          Option.map (fun (g : PT.goal_info) -> Trait_lang.Pretty.predicate g.pred) (PT.goal_info n))
        (PT.failed_leaves tree)
      |> List.sort_uniq compare
    in
    if leaves <> [ "Z: T"; "Z: U" ] then
      problem t (Printf.sprintf "deep-%d: failing leaves are %s" d (String.concat ", " leaves))

let check_op t ~round pos (op : Plan.op) result =
  let src i = t.plan.sources.(i) in
  let name i = (src i).Inputs.name in
  let scratch_of i ~file = scratch ~file (src i).text in
  match (op, result) with
  | Cli i, Checked (report, out) ->
      (* report-based checks now: the report is not kept *)
      if round < Array.length t.plan.period then check_cli_report t (src i) report;
      same_as_first t ~round ~key:(pos, 0) ~what:(name i) out (fun d ->
          if (src i).expect = Inputs.Scratch then
            let _, (ref_out, _) = scratch_of i ~file:(file_of (src i)) in
            if not (matches d ref_out) then
              problem t (name i ^ ": report differs from a cache- and index-off solve"))
  | Cli_tree i, Text s ->
      same_as_first t ~round ~key:(pos, 0) ~what:(name i ^ " bottom-up") s (fun d ->
          let report, _ = scratch_of i ~file:(file_of (src i)) in
          if not (matches d (tree_page (failing_trees report))) then
            problem t (name i ^ ": bottom-up differs from a cache- and index-off solve"))
  | Cli_view { src = i; pick }, Text s ->
      same_as_first t ~round ~key:(pos, 0) ~what:(name i ^ " click") s (fun d ->
          let report, _ = scratch_of i ~file:(file_of (src i)) in
          match failing_trees report with
          | tree :: _ when matches d (cli_view tree ~pick) -> ()
          | _ -> problem t (name i ^ ": click differs from the view of a cache- and index-off tree"))
  | Cli_explain i, Text s ->
      same_as_first t ~round ~key:(pos, 0) ~what:(name i ^ " explain") s (fun d ->
          let entries = snd (Option.get t.events.(i)) in
          match Journal.replay entries with
          | Ok tree when matches d (Serve.Explain_render.summary ~entries:(List.length entries) tree)
            ->
              ()
          | _ -> problem t (name i ^ ": explain differs from the unencoded journal's replay"))
  | Load { sess; src = i }, Responses [ _reload; solve ] ->
      let r = t.refs.(sess) in
      same_as_first t ~round ~key:(pos, 1) ~what:(name i ^ " solve") solve (fun d ->
          let report, (out, issues) = scratch_of i ~file:"<serve>" in
          (match (src i).expect with Inputs.Deep depth -> check_deep t depth report | _ -> ());
          let payload = Json.Obj [ ("output", Json.String out); ("issues", Json.Int issues) ] in
          if not (matches d (response ~id:(rid pos 1) payload)) then
            problem t (name i ^ ": solve differs from a cache-off solve of a fresh parse");
          r.trees <- Array.of_list (failing_trees report);
          Hashtbl.reset r.views)
  | Same { sess }, Responses [ resp ] -> (
      match result_of resp with
      | Some v
        when Json.member "noop" v = Some (Json.Bool true)
             && Option.bind (Json.member "delta" v) (Json.member "evicted") = Some (Json.Int 0) ->
          ()
      | _ -> problem t (sess_name sess ^ ": unchanged-source reload is not a no-op"))
  | Tree { sess }, Responses [ resp ] ->
      same_as_first t ~round ~key:(pos, 0) ~what:(sess_name sess ^ " tree") resp (fun d ->
          let page = tree_page (Array.to_list t.refs.(sess).trees) in
          if not (matches d (response ~id:(rid pos 0) (Json.Obj [ ("output", Json.String page) ])))
          then problem t (sess_name sess ^ ": tree page differs from the reference trees"))
  | Click { sess; goal; hover; pick }, Responses [ resp ] ->
      (* the row the client chose from what it had seen *)
      let row = row_of ~rows:(Option.value ~default:0 (Hashtbl.find_opt t.rows (sess, goal))) pick in
      same_as_first t ~round ~key:(pos, 0) ~what:(sess_name sess ^ " click") resp (fun d ->
          (* drive a View_state of the reference tree with the same click *)
          let r = t.refs.(sess) in
          let clicked =
            if goal >= Array.length r.trees then None
            else
              let vs =
                match Hashtbl.find_opt r.views goal with
                | Some vs -> vs
                | None -> VS.create r.trees.(goal)
              in
              click vs ~row ~hover
          in
          match clicked with
          | Some vs when matches d (response ~id:(rid pos 0) (Serve.Server.view_json ~goal vs)) ->
              Hashtbl.replace r.views goal vs
          | _ -> problem t (sess_name sess ^ ": click differs from an independently driven view"))
  | Explain { sess; _ }, Responses [ resp ] -> (
      match Option.bind (result_of resp) (Json.member "output") with
      | Some (Json.String s) when s <> "" -> ()
      | _ -> problem t (sess_name sess ^ ": explain has no output"))
  | _ -> problem t "unexpected result shape"

(* Client-side state after a response: what the user now sees. *)
let update t (op : Plan.op) result =
  match (op, result) with
  | Load { sess; src }, _ ->
      t.cur.(sess) <- src;
      Hashtbl.filter_map_inplace (fun (s, _) n -> if s = sess then None else Some n) t.rows
  | Click { sess; goal; _ }, Responses [ resp ] ->
      let rows =
        match Option.bind (result_of resp) (Json.member "lines") with
        | Some (Json.List l) -> List.length l
        | _ -> 0
      in
      Hashtbl.replace t.rows (sess, goal) rows
  | _ -> ()
