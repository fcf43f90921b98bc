(* Clocks, allocation counters, sample buffers and order statistics.

   Every timed operation is bracketed by [start] / [stop]: a monotonic
   clock read and an allocation read.  Allocation is exact on one
   domain (minor + major - promoted words), so it repeats bit for bit
   for the same operation sequence; the constant cost of the bracket
   itself is measured once and subtracted. *)

let now_ns = Telemetry.now_ns

(* Words allocated by this domain so far. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* A growable int buffer: latency samples, in nanoseconds. *)
type buf = { mutable data : int array; mutable len : int }

let buf () = { data = Array.make 256 0; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let sorted b =
  let a = Array.sub b.data 0 b.len in
  Array.sort compare a;
  a

let sum b =
  let s = ref 0 in
  for i = 0 to b.len - 1 do
    s := !s + b.data.(i)
  done;
  !s

(* Nearest-rank percentile of a sorted array, [p] in (0, 100]. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0
  else
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

(* The tail of [n] samples: the highest whole percentile with at least
   ten samples beyond it.  Below forty samples that would be no tail,
   and the median stands in. *)
let tail_percentile n =
  if n < 40 then 50
  else int_of_float (Float.floor (100. *. float_of_int (n - 10) /. float_of_int n))

let tail a =
  let n = Array.length a in
  if n < 40 then percentile a 50.
  else
    (* nearest-rank index of the tail percentile, clamped so ten
       samples stay above it *)
    let p = float_of_int (tail_percentile n) in
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(min (n - 11) (k - 1))

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* Metric output *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
             (json_float m.m_value) m.m_unit)
         ms)
  ^ "}"
