(* Operation sequences.  A run cycles through a fixed period of seeded
   rounds, a whole number of times, so every run of a workload attempts
   the same operations in the same order for a given seed.  Each round
   interleaves every operation kind, so a slow phase of the host hits all
   kinds alike; the rounds of a period draw different seeded inputs, so a
   run's figures average over many of them rather than hang on a few. *)

type op =
  | Cli of int  (** [argus check] of source [i]: parse, solve, render *)
  | Cli_tree of int  (** [argus bottom-up] of source [i] *)
  | Cli_view of { src : int; pick : int }
      (** one click in [argus interactive] on source [i]'s first failing tree *)
  | Cli_explain of int  (** [argus explain] of source [i]'s recorded journal *)
  | Load of { sess : int; src : int }  (** [reload] with source [src], then [solve] *)
  | Same of { sess : int }  (** [reload] with the unchanged source *)
  | Tree of { sess : int }
  | Click of { sess : int; goal : int; hover : bool; pick : int }
      (** [expand]/[hover] of a row of the view the client last saw:
          row [pick] (from the end when negative), row 0 on a fresh view *)
  | Explain of { sess : int; failures : bool }

type kind = Check | Reload | Tree_k | View | Explain_k

let kinds = [ Check; Reload; Tree_k; View; Explain_k ]

let kind_of = function
  | Cli _ | Load _ -> Check
  | Same _ -> Reload
  | Tree _ | Cli_tree _ -> Tree_k
  | Click _ | Cli_view _ -> View
  | Explain _ | Cli_explain _ -> Explain_k

let kind_name = function
  | Check -> "check"
  | Reload -> "reload"
  | Tree_k -> "tree"
  | View -> "view"
  | Explain_k -> "explain"

let is_cli = function Cli _ | Cli_tree _ | Cli_view _ | Cli_explain _ -> true | _ -> false

let kind_index = function Check -> 0 | Reload -> 1 | Tree_k -> 2 | View -> 3 | Explain_k -> 4

type t = {
  workload : string;
  sources : Inputs.source array;
  opened : int array;  (** per session: the source it is opened with at set-up *)
  period : op array array;  (** round [r] runs [period.(r mod length)] *)
  rounds : int;  (** a multiple of the period's length *)
}

let round p r = p.period.(r mod Array.length p.period)

let workloads = [ "cli-check"; "editor-session"; "deep-proof" ]

(* Seconds one round takes on the reference host (README); the round
   count is a fixed function of --seconds, never of elapsed time. *)
let round_seconds = function
  | "cli-check" -> 0.2
  | "editor-session" -> 0.2
  | _ -> 7.5

(* Rounds in one period. *)
let period_length ~smoke = function "deep-proof" -> 1 | _ -> if smoke then 2 else 10

let rounds_for ~smoke workload seconds =
  let p = period_length ~smoke workload in
  if smoke then 2 * p
  else
    let periods = float_of_int seconds /. (float_of_int p *. round_seconds workload) in
    p * max 1 (int_of_float (Float.round periods))

(* Failing root goals of a program: the goals a view can be opened on. *)
let failing_goals text =
  let p = Inputs.parse ~file:"<serve>" text in
  let r = Solver.Obligations.solve_program p in
  List.length (Solver.Obligations.errors r)

(* Interleave per-session operation lists round-robin. *)
let interleave lists =
  let q = Array.of_list lists in
  let out = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iteri
      (fun i l ->
        match l with
        | [] -> ()
        | x :: rest ->
            out := x :: !out;
            q.(i) <- rest;
            progress := true)
      q
  done;
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)

let cli_check ~seed ~rounds ~smoke =
  let st = Inputs.rng seed in
  let plen = period_length ~smoke "cli-check" and nfuzz = if smoke then 4 else 16 in
  let corpus = Inputs.corpus () in
  let fuzz = Inputs.fuzz ~seed (plen * nfuzz) in
  let mega =
    List.map (Inputs.mega ~seed ~goals:32) (if smoke then [ 300 ] else [ 300; 600; 1000 ])
  in
  let sources = Array.of_list (corpus @ fuzz @ mega) in
  let n_corpus = List.length corpus in
  let megas = List.init (List.length mega) (fun i -> Cli (n_corpus + (plen * nfuzz) + i)) in
  (* each round: the corpus, this round's fuzz programs, the megas, and
     the one-shot view commands on the programs with a trait error *)
  let variant v =
    let views =
      List.concat
        (List.mapi
           (fun i (s : Inputs.source) ->
             match s.expect with
             | Inputs.Root_cause _ when (not smoke) || i < 4 ->
                 [ Cli_tree i; Cli_view { src = i; pick = Random.State.int st 4 }; Cli_explain i ]
             | _ -> [])
           corpus)
    in
    let checks =
      List.init n_corpus (fun i -> Cli i)
      @ List.init nfuzz (fun i -> Cli (n_corpus + (v * nfuzz) + i))
      @ megas
    in
    Inputs.shuffle st (Array.of_list (checks @ views))
  in
  { workload = "cli-check"; sources; opened = [||]; period = Array.init plen variant; rounds }

let editor_programs =
  [ "diesel-missing-join"; "bevy-errant-param"; "axum-bad-return"; "space-raw-payload" ]

let editor_session ~seed ~rounds ~smoke =
  let st = Inputs.rng seed in
  let plen = period_length ~smoke "editor-session" in
  let bases =
    List.map
      (fun id ->
        let e = Option.get (Corpus.Suite.find id) in
        (id, e.source))
      (if smoke then [ List.hd editor_programs ] else editor_programs)
    (* one library, the same for every seed: its failing goals' trees
       differ a lot between generator seeds, and the seed is for the
       edits and clicks *)
    @ [ ("mega", (Inputs.mega ~seed:42 ~goals:16 (if smoke then 100 else 300)).text) ]
  in
  let sources = ref [] and n = ref 0 in
  let add name text =
    sources := { Inputs.name; text; expect = Inputs.Scratch } :: !sources;
    incr n;
    !n - 1
  in
  (* versions print back through the same printer as the edits *)
  let bases =
    List.map
      (fun (name, text) ->
        let base_text = Fuzz.Printer.program (Inputs.parse ~file:"<edit>" text) in
        (name, base_text, (add (name ^ "-base") base_text, failing_goals base_text)))
      bases
  in
  let clicks sess k failing =
    if failing = 0 then []
    else
      List.init k (fun i ->
          Click
            {
              sess;
              goal = Random.State.int st failing;
              hover = Random.State.bool st;
              pick = (if i = 0 then 0 else Random.State.int st 8);
            })
  in
  (* round [v]: every session reloads its base, explores it, then walks
     its own seeded three-step edit script, and ends on an unchanged
     reload *)
  let last = Array.make (List.length bases) 0 in
  let variant v =
    List.mapi
      (fun sess (name, base_text, (base, base_failing)) ->
        let edits =
          List.mapi
            (fun i text ->
              (add (Printf.sprintf "%s-r%d-e%d" name v (i + 1)) text, failing_goals text))
            (Inputs.edits ~seed:(seed + (1000 * v) + sess) ~steps:3 base_text)
        in
        last.(sess) <- fst (List.nth edits (List.length edits - 1));
        (Load { sess; src = base } :: Tree { sess } :: clicks sess 4 base_failing)
        @ [ Explain { sess; failures = Random.State.bool st } ]
        @ List.concat_map (fun (src, failing) -> Load { sess; src } :: clicks sess 2 failing) edits
        @ [ Same { sess } ])
      bases
    |> interleave
  in
  let period = Array.init plen variant in
  {
    workload = "editor-session";
    sources = Array.of_list (List.rev !sources);
    opened = last;
    period;
    rounds;
  }

(* The depths of one round: 8-13 six times each, then 14, 15, 16 twice,
   17 twice and 18, one of the larger depths after every five or six
   small ones.  Many small visits give the medians many samples; the
   tail of a round's checks falls inside the depth-16 group rather than
   on a boundary.  The order, the mix and the click walks are fixed, so
   every seed runs the same tree sizes and the same views.  Each visit
   asks for both explain outputs, the summary and the failure
   narrative; the seed picks which comes first. *)
let deep_depths ~smoke =
  if smoke then [ 8; 12; 10 ]
  else
    let small = List.concat (List.init 6 (fun _ -> [ 8; 11; 9; 12; 10; 13 ])) in
    let large = [ 16; 14; 17; 15; 18; 16; 17 ] in
    (* after small visit k, a large one whenever k crosses a multiple of
       36 / 7 *)
    List.concat
      (List.mapi
         (fun k d ->
           let due = (k + 1) * List.length large / List.length small in
           let before = k * List.length large / List.length small in
           if due > before then [ d; List.nth large before ] else [ d ])
         small)

let deep_proof ~seed ~rounds ~smoke =
  let st = Inputs.rng seed in
  let depths = deep_depths ~smoke in
  let distinct = List.sort_uniq compare depths in
  let sources = Array.of_list (List.map Inputs.deep distinct) in
  let index d =
    let rec go i = function [] -> assert false | x :: r -> if x = d then i else go (i + 1) r in
    go 0 distinct
  in
  let n = List.length depths in
  let failures = Inputs.shuffle st (Array.init n (fun i -> i < n / 2)) in
  let sess = 0 in
  let period =
    List.mapi
      (fun i d ->
        (* a walk down the failing branch: open the top leaf, then keep
           opening the deepest row shown, hovering once on the way *)
        let walk =
          List.map (fun hover -> Click { sess; goal = 0; hover; pick = -1 }) [ false; false; true; false ]
        in
        let first = failures.(i) in
        (Load { sess; src = index d } :: Tree { sess } :: walk)
        @ [ Explain { sess; failures = first }; Explain { sess; failures = not first } ])
      depths
    |> List.concat |> Array.of_list
  in
  (* opened at the middle depth, so set-up solves a tree of some size *)
  let opened = [| index (List.nth distinct (List.length distinct / 2)) |] in
  { workload = "deep-proof"; sources; opened; period = [| period |]; rounds }

let make ~workload ~seed ~seconds ~smoke =
  let rounds = rounds_for ~smoke workload seconds in
  match workload with
  | "cli-check" -> cli_check ~seed ~rounds ~smoke
  | "editor-session" -> editor_session ~seed ~rounds ~smoke
  | "deep-proof" -> deep_proof ~seed ~rounds ~smoke
  | w -> invalid_arg ("unknown workload: " ^ w)

let ops p =
  let n = ref 0 in
  for r = 0 to p.rounds - 1 do
    n := !n + Array.length (round p r)
  done;
  !n
