(* In-memory span recorder for the traced pass: one span per call the
   benchmark makes into a layer, with name, start, end and parent. A
   disabled recorder runs the wrapped function and records nothing. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  detail : string;
  start : float;  (** seconds since the recorder was created *)
  stop : float;
}

type t = {
  enabled : bool;
  origin : float;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;  (** finished spans, newest first *)
}

let create ~enabled =
  { enabled; origin = Unix.gettimeofday (); next = 0; stack = []; spans = [] }

let with_ t ?(detail = "") name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = Unix.gettimeofday () -. t.origin in
    Fun.protect
      ~finally:(fun () ->
        t.stack <- List.tl t.stack;
        t.spans <-
          { id; parent; name; detail; start;
            stop = Unix.gettimeofday () -. t.origin }
          :: t.spans)
      f
  end

let spans t = List.rev t.spans

(* Summed duration, in seconds, of every span called [name]. *)
let total t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc)
    0. t.spans

(* Per span name: (calls, total seconds, self seconds), where self time is
   a span's duration minus that of its direct children. *)
let summary t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Option.value (Hashtbl.find_opt child s.parent) ~default:0.
           +. (s.stop -. s.start)))
    t.spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let dur = s.stop -. s.start in
      let self = dur -. Option.value (Hashtbl.find_opt child s.id) ~default:0. in
      let n, d, sf =
        Option.value (Hashtbl.find_opt acc s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace acc s.name (n + 1, d +. dur, sf +. self))
    (spans t);
  Hashtbl.fold (fun name v l -> (name, v) :: l) acc []
  |> List.sort compare

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  List.iteri
    (fun i s ->
      Printf.bprintf b
        "%s\n  {\"id\": %d, \"parent\": %d, \"name\": %s, \"detail\": %s, \
         \"start_ms\": %.3f, \"end_ms\": %.3f}"
        (if i = 0 then "" else ",")
        s.id s.parent (json_string s.name) (json_string s.detail)
        (s.start *. 1000.) (s.stop *. 1000.))
    (spans t);
  Buffer.add_string b "\n]";
  Buffer.contents b
