(* The benchmark's inputs: corpus programs, seeded fuzz programs, seeded
   mega libraries, the deep-proof family, and seeded edit scripts.
   The same seed always gives the same sources. *)

module Harness = Corpus.Harness

(* What an output check expects of a source (see Exec). *)
type expect =
  | Root_cause of Harness.entry
      (** a failing goal whose tree has the annotated root cause as a leaf *)
  | All_proved  (** every goal proves *)
  | Mega of int  (** generator goal [i] has class [i mod 4]: hit, miss, family hit, chain *)
  | Scratch  (** the report equals a cache- and index-off solve of the same text *)
  | Deep of int  (** the depth-[d] member of the deep-proof family *)

type source = { name : string; text : string; expect : expect }

let rng seed = Random.State.make [| seed; 0x41726775 |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let of_entry (e : Harness.entry) =
  let expect = if e.root_cause = "" then All_proved else Root_cause e in
  { name = e.id; text = e.source; expect }

(* The 17-program paper suite, the extended corpus, its well-typed
   counterparts and the extras. *)
let corpus () =
  List.map of_entry
    (Corpus.Suite.entries @ Corpus.Suite.extended @ Corpus.Suite.extended_ok
   @ Corpus.Suite.extras)

let fuzz ~seed n =
  List.init n (fun i ->
      let size = 1 + (i mod 3) in
      {
        name = Printf.sprintf "fuzz-%d-%d" seed i;
        text = Fuzz.Gen.render (Fuzz.Gen.generate ~seed ~iter:i ~size);
        expect = Scratch;
      })

let mega ~seed ~goals impls =
  {
    name = Printf.sprintf "mega-%d" impls;
    text = Fuzz.Gen.render (Fuzz.Gen.generate_mega ~goals ~seed ~impls);
    expect = Mega (max 4 goals);
  }

(* The ROADMAP item-4 family: three impls whose proof tree for
   [S^d<Z>: T] is Fibonacci-sized. *)
let deep d =
  let rec nest k = if k = 0 then "Z" else "S<" ^ nest (k - 1) ^ ">" in
  {
    name = Printf.sprintf "deep-%d" d;
    text =
      "trait T {}\n\
       trait U {}\n\
       struct S<X>;\n\
       struct Z;\n\
       impl<X> T for S<X> where X: T {}\n\
       impl<X> U for S<X> where X: T {}\n\
       impl<X> T for S<X> where X: U {}\n"
      ^ Printf.sprintf "goal %s: T from \"branch\";\n" (nest d);
    expect = Deep d;
  }

(* Fibonacci numbers, F(1) = F(2) = 1. *)
let fib n =
  let rec go a b k = if k <= 1 then a else go b (a + b) (k - 1) in
  if n <= 0 then 0 else go 1 1 n

(* Goal count of the unfolded depth-[d] tree.  Write t(n) and u(n) for
   the goals under [S^n<Z>: T] and [S^n<Z>: U].  [Z] has no impls, so
   t(0) = u(0) = 1; [S^n<Z>: T] tries both T impls, so
   t(n) = 1 + t(n-1) + u(n-1); [S^n<Z>: U] has one impl, so
   u(n) = 1 + t(n-1).  Then t(n) + 2 = (t(n-1) + 2) + (t(n-2) + 2), with
   t(0) + 2 = 3 = F(4) and t(1) + 2 = 5 = F(5): t(d) = F(d+4) - 2. *)
let deep_goals d = fib (d + 4) - 2

let parse ~file text = Trait_lang.Resolve.program_of_string ~file text

(* Successive versions of a program under a seeded single-declaration
   edit script, printed back to source. *)
let edits ~seed ~steps text =
  let p = parse ~file:"<edit>" text in
  List.map (fun (_, v) -> Fuzz.Printer.program v) (Fuzz.Edit.script ~seed ~steps p)
