(* The traced run.  The server's internals cannot be timed from outside,
   so this replays a plan's operations by calling the layers' public
   functions in the order [Serve.Server] and the CLI call them, with
   telemetry on, timing each layer.  Every output is compared with the
   untraced run's output at the same position, which keeps the replay
   honest: a replay that skipped or reordered work would answer
   differently. *)

module Json = Argus_json.Json
module Rpc = Argus_json.Rpc
module PT = Argus.Proof_tree
module VS = Argus.View_state
module Obl = Solver.Obligations

(* ------------------------------------------------------------------ *)
(* Layer clocks *)

type clock = { mutable ns : int; mutable calls : int }

let clocks : (string, clock) Hashtbl.t = Hashtbl.create 32

(* layer time spent inside the current operation, for serve.self *)
let in_op = ref 0

let clock name =
  match Hashtbl.find_opt clocks name with
  | Some c -> c
  | None ->
      let c = { ns = 0; calls = 0 } in
      Hashtbl.add clocks name c;
      c

(* Time [f] as one call of [layer].  Nested layers are not counted
   twice in [in_op]: only outermost layer time is subtracted from the
   request latency. *)
let depth = ref 0

let time layer f =
  let c = clock layer in
  incr depth;
  let t0 = Telemetry.now_ns () in
  let r = Fun.protect ~finally:(fun () -> decr depth) f in
  let dt = Telemetry.now_ns () - t0 in
  c.ns <- c.ns + dt;
  c.calls <- c.calls + 1;
  if !depth = 0 then in_op := !in_op + dt;
  r

(* Per-call mean in microseconds; 0 for a layer this workload never runs. *)
let mean_us name =
  match Hashtbl.find_opt clocks name with
  | Some c when c.calls > 0 -> float_of_int c.ns /. 1e3 /. float_of_int c.calls
  | _ -> 0.

let total_ns name = match Hashtbl.find_opt clocks name with Some c -> c.ns | None -> 0

(* Quantities counted alongside the clocks. *)
let bytes_parsed = ref 0
let journal_entries = ref 0
let solves = ref 0
let tree_goals = ref 0
let trees = ref 0
let evicted = ref 0
let survived = ref 0
let edits = ref 0
let response_bytes = ref 0
let responses = ref 0

let reset () =
  Hashtbl.reset clocks;
  List.iter
    (fun r -> r := 0)
    [
      bytes_parsed; journal_entries; solves; tree_goals; trees; evicted; survived; edits;
      response_bytes; responses;
    ]

(* ------------------------------------------------------------------ *)
(* Layer calls *)

let parse ~file text =
  bytes_parsed := !bytes_parsed + String.length text;
  time "parse" (fun () -> Trait_lang.Resolve.program_of_string ~file text)

let extract r =
  let tree = time "extract" (fun () -> Argus.Extract.of_report r) in
  tree_goals := !tree_goals + PT.goal_count tree;
  incr trees;
  tree

(* [Serve.Check_render.run], layer by layer: the same calls in the same
   order, assembling the same bytes. *)
let check_render program (report : Obl.report) =
  time "check_render" (fun () ->
      let buf = Buffer.create 1024 in
      let bpf fmt = Printf.bprintf buf fmt in
      let issues = ref 0 in
      let overlaps, orphans, wf =
        time "coherence" (fun () ->
            let o = Solver.Coherence.check program in
            let r = Solver.Coherence.orphan_violations program in
            let w = Solver.Coherence.check_impl_wf program in
            (o, r, w))
      in
      List.iter
        (fun (o : Solver.Coherence.overlap) ->
          incr issues;
          bpf "error[E0119]: conflicting implementations of trait `%s` for type `%s`\n"
            (Trait_lang.Path.name o.trait_) (Trait_lang.Pretty.ty o.witness))
        overlaps;
      List.iter
        (fun (o : Solver.Coherence.orphan) ->
          incr issues;
          bpf
            "error[E0117]: only traits defined in the current crate can be implemented for \
             arbitrary types (`%s` for `%s` at %s)\n"
            (Trait_lang.Path.to_string o.o_trait)
            (Trait_lang.Pretty.ty o.o_self)
            (Trait_lang.Span.to_string o.o_impl.impl_span))
        orphans;
      List.iter
        (fun (f : Solver.Coherence.wf_failure) ->
          incr issues;
          bpf "error[E0277]: the associated type binding `%s` does not satisfy `%s` (%s)\n"
            f.wf_assoc
            (Trait_lang.Pretty.trait_ref f.wf_bound)
            (Trait_lang.Span.to_string f.wf_impl.impl_span))
        wf;
      let print_goal_report (r : Obl.goal_report) =
        let status =
          match r.status with
          | Obl.Proved -> "ok"
          | Obl.Disproved -> "ERROR"
          | Obl.Ambiguous -> "AMBIGUOUS"
        in
        bpf "[%s] %s\n" status (Trait_lang.Pretty.predicate r.final.pred);
        if r.status <> Obl.Proved then begin
          incr issues;
          let tree = extract r in
          let goal = { r.goal with Trait_lang.Program.goal_pred = r.final.pred } in
          let text =
            time "diag" (fun () ->
                Rustc_diag.Diagnostic.to_string (Rustc_diag.Diagnostic.of_tree program goal tree))
          in
          Buffer.add_char buf '\n';
          Buffer.add_string buf text;
          Buffer.add_char buf '\n'
        end
      in
      List.iter print_goal_report report.reports;
      let tc = time "typeck" (fun () -> Typeck.Infer.check_program program) in
      List.iter
        (fun (fr : Typeck.Infer.fn_report) ->
          bpf "fn %s:\n" (Trait_lang.Path.name fr.fr_fn.fn_path);
          List.iter
            (fun (e : Typeck.Infer.type_error) ->
              incr issues;
              bpf "error[E0308]: %s\n  --> %s\n" e.te_message (Trait_lang.Span.to_string e.te_span))
            fr.fr_type_errors;
          List.iter
            (fun (p : Typeck.Infer.probe) ->
              if p.p_chosen = None then begin
                incr issues;
                bpf "error[E0599]: no method named `%s` found for `%s`; probed candidates:\n"
                  p.p_method
                  (Trait_lang.Pretty.ty p.p_recv_ty);
                List.iter
                  (fun tree ->
                    Buffer.add_string buf
                      (time "render" (fun () ->
                           Argus.Render.tree_to_string ~direction:VS.Top_down tree));
                    Buffer.add_char buf '\n')
                  (Argus.Extract.of_probe p.p_nodes)
              end)
            fr.fr_probes;
          List.iter print_goal_report fr.fr_obligations)
        tc.fr_fns;
      (Buffer.contents buf, !issues))

(* ------------------------------------------------------------------ *)
(* The serve verbs, as [Serve.Server] runs them *)

type solved = { output : string; journal : Journal.entry list; trees : PT.t array }

type session = {
  session : Solver.Session.t;
  mutable source : string;
  mutable solved : solved option;
  views : (int, VS.t) Hashtbl.t;
}

let delta_json (d : Solver.Session.delta) =
  Json.Obj
    [
      ("changed", Json.Int d.d_changed);
      ("evicted", Json.Int d.d_evicted);
      ("survived", Json.Int d.d_survived);
      ("rebased", Json.Int d.d_rebased);
    ]

let edit s program =
  let d = time "edit" (fun () -> Solver.Session.edit s.session program) in
  evicted := !evicted + d.d_evicted;
  survived := !survived + d.d_survived;
  incr edits;
  d

let str name p = Option.bind (Json.member name p) Json.to_string_opt
let int name p = Option.bind (Json.member name p) Json.to_int_opt

let verb_open sessions params =
  let name = Option.get (str "session" params) and source = Option.get (str "source" params) in
  let program = parse ~file:"<serve>" source in
  let s =
    { session = Solver.Session.create (); source; solved = None; views = Hashtbl.create 4 }
  in
  Hashtbl.replace sessions name s;
  let d = edit s program in
  Json.Obj
    [
      ("session", Json.String name);
      ("delta", delta_json d);
      ("goals", Json.Int (List.length (Trait_lang.Program.goals program)));
    ]

let verb_reload s params =
  let source = Option.get (str "source" params) in
  let program =
    if String.equal source s.source then
      match Solver.Session.program s.session with Some p -> p | None -> parse ~file:"<serve>" source
    else parse ~file:"<serve>" source
  in
  let noop =
    match Solver.Session.program s.session with
    | Some old -> Trait_lang.Program.stamp old = Trait_lang.Program.stamp program
    | None -> false
  in
  let d = edit s program in
  s.source <- source;
  s.solved <- None;
  Hashtbl.reset s.views;
  Json.Obj [ ("delta", delta_json d); ("noop", Json.Bool noop) ]

let verb_solve s =
  let program = Option.get (Solver.Session.program s.session) in
  let (output, issues), entries =
    Journal.with_memory_sink (fun () ->
        let report = time "solve" (fun () -> Solver.Session.resolve s.session) in
        check_render program report)
  in
  let journal =
    List.mapi
      (fun i (e : Journal.entry) ->
        Journal.shift_entry ~seq:i ~ids:0 ~snaps:0 { e with Journal.ts_ns = 0 })
      entries
  in
  journal_entries := !journal_entries + List.length journal;
  incr solves;
  let report = Option.get (Solver.Session.report s.session) in
  let trees =
    report.reports
    |> List.filter (fun (r : Obl.goal_report) -> r.status <> Obl.Proved)
    |> List.map extract |> Array.of_list
  in
  s.solved <- Some { output; journal; trees };
  Hashtbl.reset s.views;
  Json.Obj [ ("output", Json.String output); ("issues", Json.Int issues) ]

let verb_tree s =
  let sv = Option.get s.solved in
  let buf = Buffer.create 256 in
  Array.iter
    (fun tree ->
      Buffer.add_string buf
        (time "render" (fun () -> Argus.Render.tree_to_string ~direction:VS.Bottom_up tree));
      Buffer.add_string buf "\n\n")
    sv.trees;
  Json.Obj [ ("output", Json.String (Buffer.contents buf)) ]

let verb_view s params ~hover =
  let sv = Option.get s.solved in
  let goal = Option.value ~default:0 (int "goal" params) and row = Option.get (int "row" params) in
  time "view" (fun () ->
      let vs =
        match Hashtbl.find_opt s.views goal with Some vs -> vs | None -> VS.create sv.trees.(goal)
      in
      let vs = Option.get (Exec.click vs ~row ~hover) in
      Hashtbl.replace s.views goal vs;
      Serve.Server.view_json ~goal vs)

let verb_explain s params =
  let sv = Option.get s.solved in
  let failures = Option.bind (Json.member "failures" params) Json.to_bool_opt = Some true in
  let tree =
    match time "replay" (fun () -> Journal.replay sv.journal) with
    | Ok t -> t
    | Error m -> failwith m
  in
  let out =
    time "explain_render" (fun () ->
        if failures then Serve.Explain_render.failures tree
        else Serve.Explain_render.summary ~entries:(List.length sv.journal) tree)
  in
  Json.Obj [ ("output", Json.String out) ]

(* One request line, decoded, dispatched and encoded like
   [Serve.Server.handle_line]. *)
let handle sessions line =
  let req =
    match time "decode" (fun () -> Rpc.request_of_line line) with
    | Ok r -> r
    | Error e -> failwith e.Rpc.message
  in
  let params = Option.value ~default:Json.Null req.Rpc.rpc_params in
  let s () = Hashtbl.find sessions (Option.get (str "session" params)) in
  let payload =
    match req.Rpc.rpc_method with
    | "open" -> verb_open sessions params
    | "reload" -> verb_reload (s ()) params
    | "solve" -> verb_solve (s ())
    | "tree" -> verb_tree (s ())
    | "expand" -> verb_view (s ()) params ~hover:false
    | "hover" -> verb_view (s ()) params ~hover:true
    | "explain" -> verb_explain (s ()) params
    | m -> failwith ("unreplayed verb " ^ m)
  in
  let id = Option.get req.Rpc.rpc_id in
  let resp = time "encode" (fun () -> Rpc.response_to_line (Rpc.ok id payload)) in
  response_bytes := !response_bytes + String.length resp;
  incr responses;
  resp

(* ------------------------------------------------------------------ *)
(* The one-shot CLI commands *)

let cli t (op : Plan.op) =
  let src i = t.Exec.plan.sources.(i) in
  let solve_file i =
    let program = parse ~file:(Exec.file_of (src i)) (src i).text in
    (program, time "solve" (fun () -> Obl.solve_program program))
  in
  match op with
  | Cli i ->
      let program, report = solve_file i in
      fst (check_render program report)
  | Cli_tree i ->
      let _, report = solve_file i in
      report.reports
      |> List.filter (fun (r : Obl.goal_report) -> r.status <> Obl.Proved)
      |> List.map (fun r ->
             let tree = extract r in
             time "render" (fun () -> Argus.Render.tree_to_string ~direction:VS.Bottom_up tree)
             ^ "\n\n")
      |> String.concat ""
  | Cli_view { src = i; pick } ->
      time "view" (fun () -> Exec.cli_view (Option.get t.held.(i)) ~pick)
  | Cli_explain i ->
      let events = fst (Option.get t.events.(i)) in
      let entries = time "decode" (fun () -> Argus_json.Journal_codec.of_jsonl events) in
      let tree =
        match time "replay" (fun () -> Journal.replay entries) with
        | Ok t -> t
        | Error m -> failwith m
      in
      time "explain_render" (fun () ->
          Serve.Explain_render.summary ~entries:(List.length entries) tree)
  | _ -> assert false

(* ------------------------------------------------------------------ *)

type outcome = {
  traced_ns : int;  (** summed operation latency under tracing *)
  self_ns : int;  (** serve request latency outside the timed layers *)
  serve_ops : int;
  mismatches : int;
}

(* Replay [t]'s plan against [digests], the untraced run's per-operation
   output digests in execution order.  [t] is a set-up made for this
   replay (its server is not used). *)
let run (t : Exec.t) (digests : Digest.t array) =
  reset ();
  let plan = t.Exec.plan in
  let sessions = Hashtbl.create 8 in
  Array.iteri
    (fun sess src -> List.iter (fun l -> ignore (handle sessions l)) (Exec.warm_up plan sess src))
    plan.opened;
  reset ();
  let traced = ref 0 and self = ref 0 and serve_ops = ref 0 and mismatches = ref 0 in
  let k = ref 0 in
  for r = 0 to plan.rounds - 1 do
    Array.iteri
      (fun pos (op : Plan.op) ->
        let lines = Exec.request_lines t pos op in
        let is_cli = Plan.is_cli op in
        if is_cli then Exec.fresh ();
        in_op := 0;
        let t0 = Telemetry.now_ns () in
        let outs =
          try if is_cli then [ cli t op ] else List.map (handle sessions) lines with _ -> [ "" ]
        in
        let dt = Telemetry.now_ns () - t0 in
        traced := !traced + dt;
        if not is_cli then begin
          self := !self + (dt - !in_op);
          incr serve_ops
        end;
        let result = if is_cli then Exec.Text (List.hd outs) else Exec.Responses outs in
        if not (Digest.equal (Exec.digest_of result) digests.(!k)) then incr mismatches;
        incr k;
        Exec.update t op result)
      (Plan.round plan r)
  done;
  { traced_ns = !traced; self_ns = !self; serve_ops = !serve_ops; mismatches = !mismatches }

(* journal.solve_overhead, over the first round's sources: a journaled
   resolve + render over the same work unjournaled, both from the same
   warm cache (a warm journaled solve re-evaluates hits and inserts
   nothing, so neither run changes the cache the other sees). *)
let solve_overhead (plan : Plan.t) =
  let srcs =
    Array.to_list (Plan.round plan 0)
    |> List.filter_map (function Plan.Load { src; _ } -> Some src | _ -> None)
    |> List.sort_uniq compare
  in
  if srcs = [] then 0.
  else begin
    let j = ref 0 and u = ref 0 in
    List.iter
      (fun src ->
        Exec.fresh ();
        let program = Inputs.parse ~file:"<serve>" plan.sources.(src).Inputs.text in
        let s = Solver.Session.create () in
        ignore (Solver.Session.edit s program);
        let work () = ignore (Serve.Check_render.run program (Solver.Session.resolve s)) in
        work ();
        for _ = 1 to 2 do
          let t0 = Telemetry.now_ns () in
          work ();
          let t1 = Telemetry.now_ns () in
          ignore (Journal.with_memory_sink work);
          let t2 = Telemetry.now_ns () in
          u := !u + (t1 - t0);
          j := !j + (t2 - t1)
        done)
      srcs;
    float_of_int !j /. float_of_int (max 1 !u)
  end

(* pool.speedup_j2: the first round's check files through [Pool.run] at
   jobs 2 against the sequential path, each from a cleared cache. *)
let pool_speedup (plan : Plan.t) =
  let files =
    Array.to_list (Plan.round plan 0)
    |> List.filter_map (function Plan.Cli i -> Some plan.sources.(i) | _ -> None)
  in
  if files = [] then 0.
  else begin
    let unit (s : Inputs.source) =
      Journal.reset ();
      Solver.Infer_ctx.reset_snapshot_serial ();
      snd (Exec.cli_check ~file:(Exec.file_of s) s.text)
    in
    let timed jobs =
      Exec.fresh ();
      let t0 = Telemetry.now_ns () in
      let outs = Pool.run ~jobs unit files in
      (Telemetry.now_ns () - t0, outs)
    in
    let t1, o1 = timed 1 in
    let t2, o2 = timed 2 in
    if o1 <> o2 then failwith "jobs 2 output differs from jobs 1";
    float_of_int t1 /. float_of_int (max 1 t2)
  end
