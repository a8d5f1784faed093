type kind =
  | Fail_stop
  | Drop_requests of int
  | Slow of { factor : int; cycles : int }
  | Corrupt_payload of int
  | Corrupt_storage
  | Duplicate_delivery of int

type kind_class =
  | C_fail_stop
  | C_drop
  | C_slow
  | C_corrupt_payload
  | C_corrupt_storage
  | C_duplicate

let class_of_kind = function
  | Fail_stop -> C_fail_stop
  | Drop_requests _ -> C_drop
  | Slow _ -> C_slow
  | Corrupt_payload _ -> C_corrupt_payload
  | Corrupt_storage -> C_corrupt_storage
  | Duplicate_delivery _ -> C_duplicate

let class_to_string = function
  | C_fail_stop -> "fail-stop"
  | C_drop -> "drop"
  | C_slow -> "slow"
  | C_corrupt_payload -> "corrupt-payload"
  | C_corrupt_storage -> "corrupt-storage"
  | C_duplicate -> "duplicate"

let all_classes =
  [ C_fail_stop; C_drop; C_slow; C_corrupt_payload; C_corrupt_storage;
    C_duplicate ]

let legacy_classes = [ C_fail_stop; C_drop; C_slow ]

let corruption_classes = [ C_corrupt_payload; C_corrupt_storage; C_duplicate ]

let class_of_string s =
  List.find_opt (fun c -> class_to_string c = s) all_classes

type site = { role : string; index : int }

type event = { at : int; site : site; kind : kind }

type plan = { seed : int; events : event list }

let site ?(index = 0) role = { role; index }

let empty = { seed = 0; events = [] }

let is_empty p = p.events = []

let compare_event a b =
  match compare a.at b.at with 0 -> compare a.site b.site | c -> c

let make ~seed events = { seed; events = List.stable_sort compare_event events }

let seed p = p.seed
let events p = p.events

let count_before p ~cycle =
  List.length (List.filter (fun e -> e.at < cycle) p.events)

(* A fault plan is a pure function of (seed, horizon, menu, count): the
   same arguments always produce the same schedule, which is what makes a
   faulty run replayable from a single integer. *)
let random ~seed ~horizon ~menu ~count =
  if horizon <= 0 then invalid_arg "Fault.random: horizon must be positive";
  if Array.length menu = 0 then { seed; events = [] }
  else begin
    let rng = Rng.create ~seed in
    let events = ref [] in
    for _ = 1 to count do
      let at = Rng.int_in rng 1 horizon in
      let s, kinds = Rng.pick rng menu in
      let kind =
        if Array.length kinds = 0 then Fail_stop else Rng.pick rng kinds
      in
      events := { at; site = s; kind } :: !events
    done;
    make ~seed (List.rev !events)
  end

let salt e = (e.at * 31) + e.site.index

let kind_to_string = function
  | Fail_stop -> "fail-stop"
  | Drop_requests n -> Printf.sprintf "drop-%d" n
  | Slow { factor; cycles } -> Printf.sprintf "slow-x%d-for-%d" factor cycles
  | Corrupt_payload n -> Printf.sprintf "corrupt-payload-%d" n
  | Corrupt_storage -> "corrupt-storage"
  | Duplicate_delivery n -> Printf.sprintf "duplicate-%d" n

let site_to_string s =
  if s.index = 0 && not (String.contains s.role ':') then s.role
  else Printf.sprintf "%s:%d" s.role s.index

let event_to_string e =
  Printf.sprintf "@%d %s %s" e.at (site_to_string e.site) (kind_to_string e.kind)

let pp ppf p =
  Format.fprintf ppf "plan(seed=%d)" p.seed;
  List.iter (fun e -> Format.fprintf ppf " [%s]" (event_to_string e)) p.events
