(* argusbench: the end-to-end benchmark of argus.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --smoke

   One process, one domain, one client.  A run sets up five times (the
   median is setup_s), then executes a fixed number of operations --
   whole periods of seeded rounds, their count a fixed function of
   --seconds -- timing each from this code, with telemetry off.  --trace 1 adds the traced replay (Replay) and prints the
   per-layer metrics instead of the end-to-end ones.  The last line of
   standard output is the result object. *)

let usage =
  "main.exe --workload cli-check|editor-session|deep-proof --seed N --seconds S --trace 0|1 \
   | --smoke"

(* ------------------------------------------------------------------ *)
(* Set-up *)

let setup ~workload ~seed ~seconds ~smoke ~open_sessions =
  Exec.fresh ();
  let plan = Plan.make ~workload ~seed ~seconds ~smoke in
  Exec.fresh ();
  Exec.create ~open_sessions plan

(* Set up [k] times; keep the last, report the median seconds. *)
let setups k f =
  let times = ref [] and last = ref None in
  for _ = 1 to k do
    last := None;
    let t0 = Measure.now_ns () in
    let x = f () in
    times := (float_of_int (Measure.now_ns () - t0) /. 1e9) :: !times;
    last := Some x
  done;
  (Option.get !last, Measure.median_float !times)

(* ------------------------------------------------------------------ *)
(* The measured run *)

type measured = {
  lat : Measure.buf array;  (** per kind, ns *)
  attempted : int array;
  failed : int array;
  alloc_words : float;
  round_check_ns : int array;  (** check latency per round *)
  digests : Digest.t array;  (** per operation, in execution order *)
  heap_words : int;  (** top of the major heap when the operations end *)
  minor_gcs : int;
  major_gcs : int;
}

(* Words the timing bracket itself allocates. *)
let bracket_words () =
  let w0 = Measure.words () in
  let t0 = Measure.now_ns () in
  let r = Sys.opaque_identity (Ok ()) in
  let t1 = Measure.now_ns () in
  let w1 = Measure.words () in
  ignore (r, t1 - t0);
  w1 -. w0

let run_plan (t : Exec.t) =
  let plan = t.plan in
  let nk = List.length Plan.kinds in
  let lat = Array.init nk (fun _ -> Measure.buf ()) in
  let attempted = Array.make nk 0 and failed = Array.make nk 0 in
  let alloc = ref 0. in
  let per_round = Array.make plan.rounds 0 in
  let digests = Array.make (Plan.ops plan) (Digest.string "") in
  let overhead = bracket_words () in
  let g0 = Gc.quick_stat () in
  let k = ref 0 in
  for r = 0 to plan.rounds - 1 do
    Array.iteri
      (fun pos op ->
        let kind = Plan.kind_index (Plan.kind_of op) in
        let lines = Exec.request_lines t pos op in
        if Plan.is_cli op then Exec.fresh ();
        let w0 = Measure.words () in
        let t0 = Measure.now_ns () in
        let result = try Ok (Exec.execute t op lines) with e -> Error e in
        let t1 = Measure.now_ns () in
        let w1 = Measure.words () in
        let dt = t1 - t0 in
        attempted.(kind) <- attempted.(kind) + 1;
        Measure.push lat.(kind) dt;
        alloc := !alloc +. (w1 -. w0 -. overhead);
        if Plan.kind_of op = Plan.Check then per_round.(r) <- per_round.(r) + dt;
        (match result with
        | Error e ->
            failed.(kind) <- failed.(kind) + 1;
            Exec.problem t (Printf.sprintf "operation %d raised %s" pos (Printexc.to_string e))
        | Ok res ->
            if Exec.failed pos res then failed.(kind) <- failed.(kind) + 1
            else Exec.check_op t ~round:r pos op res;
            Exec.update t op res;
            digests.(!k) <- Exec.digest_of res);
        incr k)
      (Plan.round plan r)
  done;
  let g1 = Gc.quick_stat () in
  Exec.verify t;
  {
    lat;
    attempted;
    failed;
    alloc_words = !alloc;
    round_check_ns = per_round;
    digests;
    heap_words = g1.top_heap_words;
    minor_gcs = g1.minor_collections - g0.minor_collections;
    major_gcs = g1.major_collections - g0.major_collections;
  }

let total a = Array.fold_left ( + ) 0 a
let us ns = float_of_int ns /. 1e3

let end_to_end ~setup_s (m : measured) =
  let ops = total m.attempted in
  let wall = Array.fold_left (fun acc b -> acc + Measure.sum b) 0 m.lat in
  let kind k = Measure.sorted m.lat.(Plan.kind_index k) in
  let check = kind Plan.Check and tree = kind Plan.Tree_k and view = kind Plan.View in
  let explain = kind Plan.Explain_k in
  Measure.
    [
      metric "setup_s" "s" setup_s;
      metric "ops_per_s" "1/s" (float_of_int ops /. (float_of_int wall /. 1e9));
      metric "check_p50_us" "us" (us (percentile check 50.));
      metric "check_tail_us" "us" (us (tail check));
      metric "tree_p50_us" "us" (us (percentile tree 50.));
      metric "tree_tail_us" "us" (us (tail tree));
      metric "view_p50_us" "us" (us (percentile view 50.));
      metric "view_tail_us" "us" (us (tail view));
      metric "explain_p50_us" "us" (us (percentile explain 50.));
      metric "alloc_kb_per_op" "kB"
        (m.alloc_words *. float_of_int (Sys.word_size / 8) /. 1e3 /. float_of_int ops);
      metric "peak_heap_mb" "MB" (float_of_int (m.heap_words * (Sys.word_size / 8)) /. 1e6);
    ]

(* ------------------------------------------------------------------ *)
(* The traced run *)

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)
let per a n = if n = 0 then 0. else float_of_int a /. float_of_int n

let span_sum snap name =
  let spans = snap.Telemetry.sn_spans in
  match List.find_opt (fun (h : Telemetry.hist_summary) -> h.hs_name = name) spans with
  | Some h -> (h.hs_sum_ns, h.hs_count)
  | None -> (0, 0)

(* The untraced run's check latency in its last period of rounds over
   its first: the same inputs, early and late in the process's life.
   With a 10-round period and the default run length this is the last
   tenth of the run against the first. *)
let age_slowdown ~period (m : measured) =
  let r = Array.length m.round_check_ns in
  let sum lo = Array.fold_left ( + ) 0 (Array.sub m.round_check_ns lo period) in
  if r < 2 * period then 1. else float_of_int (sum (r - period)) /. float_of_int (max 1 (sum 0))

let per_layer ~workload ~seed ~seconds ~smoke (m : measured) =
  let t = setup ~workload ~seed ~seconds ~smoke ~open_sessions:false in
  let plan = t.Exec.plan in
  Telemetry.reset ();
  Telemetry.enable ();
  let o = Replay.run t m.digests in
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  let c = Telemetry.counter_value in
  let checks = m.attempted.(Plan.kind_index Plan.Check) in
  let ops = total m.attempted in
  let rank_ns, rank_n = span_sum snap "inertia.rank" in
  let formula_ns, formula_n = span_sum snap "formula.of_tree" in
  let dnf_ns, _ = span_sum snap "dnf.normalize" in
  let overhead = Replay.solve_overhead plan in
  let speedup = if workload = "cli-check" then Replay.pool_speedup plan else 0. in
  let untraced = Array.fold_left (fun acc b -> acc + Measure.sum b) 0 m.lat in
  let parse_ns = Replay.total_ns "parse" in
  let metrics =
    Measure.
      [
        metric "trait_lang.parse_us" "us" (Replay.mean_us "parse");
        metric "trait_lang.mb_per_s" "MB/s"
          (if parse_ns = 0 then 0.
           else float_of_int !Replay.bytes_parsed /. float_of_int parse_ns *. 1e3);
        metric "trait_lang.interner_miss_rate" "ratio"
          (ratio (c "interner.miss") (c "interner.hit"));
        metric "solver.solve_us" "us" (Replay.mean_us "solve");
        metric "solver.goals_per_op" "count" (per (c "solver.goals") checks);
        metric "solver.unify_per_op" "count" (per (c "unify.attempts") checks);
        metric "solver.cache_hit_rate" "ratio"
          (ratio (c "cache.tree.hits") (c "cache.tree.misses"));
        metric "solver.cache_inserts_per_op" "count" (per (c "cache.tree.inserts") checks);
        metric "solver.index_reject_rate" "ratio" (ratio (c "index.rejects") (c "index.hits"));
        metric "solver.coherence_us" "us" (Replay.mean_us "coherence");
        metric "solver.edit_us" "us" (Replay.mean_us "edit");
        metric "solver.evicted_per_edit" "count" (per !Replay.evicted !Replay.edits);
        metric "solver.survived_per_edit" "count" (per !Replay.survived !Replay.edits);
        metric "typeck.check_us" "us" (Replay.mean_us "typeck");
        metric "journal.entries_per_solve" "count" (per !Replay.journal_entries !Replay.solves);
        metric "journal.solve_overhead" "x" overhead;
        metric "journal.replay_us" "us" (Replay.mean_us "replay");
        metric "core.tree_nodes" "count" (per !Replay.tree_goals !Replay.trees);
        metric "core.extract_us" "us" (Replay.mean_us "extract");
        metric "core.rank_us" "us" (if rank_n = 0 then 0. else us rank_ns /. float_of_int rank_n);
        metric "core.dnf_us" "us"
          (if formula_n = 0 then 0. else us (formula_ns + dnf_ns) /. float_of_int formula_n);
        metric "core.render_us" "us" (Replay.mean_us "render");
        metric "core.view_us" "us" (Replay.mean_us "view");
        metric "rustc_diag.diag_us" "us" (Replay.mean_us "diag");
        metric "serve.check_render_us" "us" (Replay.mean_us "check_render");
        metric "serve.explain_render_us" "us" (Replay.mean_us "explain_render");
        metric "serve.self_us" "us" (per o.self_ns o.serve_ops /. 1e3);
        metric "serve.age_slowdown" "x" (age_slowdown ~period:(Array.length plan.period) m);
        metric "json.decode_us" "us" (Replay.mean_us "decode");
        metric "json.encode_us" "us" (Replay.mean_us "encode");
        metric "json.response_kb" "kB" (per !Replay.response_bytes !Replay.responses /. 1e3);
        metric "gc.minor_per_op" "count" (per m.minor_gcs ops);
        metric "gc.major_per_op" "count" (per m.major_gcs ops);
        metric "pool.speedup_j2" "x" speedup;
        metric "trace.overhead_us" "us" (us (o.traced_ns - untraced) /. float_of_int ops);
      ]
  in
  (metrics, o.mismatches)

(* ------------------------------------------------------------------ *)

let ops_line ~workload ~seed (t : Exec.t) (m : measured) =
  let kinds = Plan.kinds in
  let field f = String.concat ", " (List.map f kinds) in
  let name k = Plan.kind_name k and i k = Plan.kind_index k in
  Printf.sprintf
    "{\"workload\": %S, \"seed\": %d, \"rounds\": %d, \"ops\": {%s}, \"tail\": {%s}, \
     \"problems\": [%s]}"
    workload seed t.Exec.plan.rounds
    (field (fun k ->
         Printf.sprintf "%S: {\"attempted\": %d, \"failed\": %d}" (name k) m.attempted.(i k)
           m.failed.(i k)))
    (field (fun k ->
         let n = m.lat.(i k).Measure.len in
         Printf.sprintf "%S: {\"percentile\": %d, \"samples\": %d}" (name k)
           (Measure.tail_percentile n) n))
    (String.concat ", " (List.map (Printf.sprintf "%S") (List.rev t.problems)))

let bench ~workload ~seed ~seconds ~trace ~smoke ~k =
  let t, setup_s = setups k (fun () -> setup ~workload ~seed ~seconds ~smoke ~open_sessions:true) in
  let m = run_plan t in
  print_endline (ops_line ~workload ~seed t m);
  let metrics, mismatches =
    if trace then begin
      Exec.fresh ();
      per_layer ~workload ~seed ~seconds ~smoke m
    end
    else (end_to_end ~setup_s m, 0)
  in
  if mismatches > 0 then
    Exec.problem t
      (Printf.sprintf "traced replay: %d outputs differ from the untraced run" mismatches);
  let correct = t.n_problems = 0 in
  if not correct then
    List.iter (fun p -> prerr_endline ("check failed: " ^ p)) (List.rev t.problems);
  (correct, total m.attempted, total m.failed, metrics)

let result_line (correct, attempted, failed, metrics) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}" correct
    attempted failed (Measure.metrics_json metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let smoke = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  cli-check, editor-session or deep-proof");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  run length the round count is sized for");
      ("--trace", Arg.Set_int trace, "0|1  1: traced replay and per-layer metrics");
      ("--smoke", Arg.Set smoke, " every workload at a small size, traced, all checks on");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !smoke then begin
    let ok =
      List.for_all
        (fun workload ->
          let ((correct, attempted, failed, _) as r) =
            bench ~workload ~seed:!seed ~seconds:1 ~trace:true ~smoke:true ~k:1
          in
          print_endline (result_line r);
          correct && failed = 0 && attempted > 0)
        Plan.workloads
    in
    exit (if ok then 0 else 1)
  end
  else begin
    if not (List.mem !workload Plan.workloads) then begin
      prerr_endline usage;
      exit 2
    end;
    let r =
      bench ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~smoke:false
        ~k:5
    in
    print_endline (result_line r)
  end
