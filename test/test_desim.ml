(* Unit and property tests for the discrete-event kernel. *)

open Vat_desim

let test_ordering () =
  let q = Event_queue.create () in
  let log = ref [] in
  Event_queue.schedule q ~at:5 (fun () -> log := 5 :: !log);
  Event_queue.schedule q ~at:1 (fun () -> log := 1 :: !log);
  Event_queue.schedule q ~at:3 (fun () -> log := 3 :: !log);
  Event_queue.run q;
  Alcotest.(check (list int)) "time order" [ 1; 3; 5 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 5 (Event_queue.now q)

let test_same_cycle_fifo () =
  let q = Event_queue.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Event_queue.schedule q ~at:7 (fun () -> log := i :: !log)
  done;
  Event_queue.run q;
  Alcotest.(check (list int))
    "insertion order within a cycle"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_schedule_during_run () =
  let q = Event_queue.create () in
  let log = ref [] in
  Event_queue.schedule q ~at:1 (fun () ->
      log := `A :: !log;
      Event_queue.after q ~delay:2 (fun () -> log := `B :: !log));
  Event_queue.run q;
  Alcotest.(check int) "final time" 3 (Event_queue.now q);
  Alcotest.(check bool) "chained event ran" true (List.mem `B !log)

let test_past_scheduling_rejected () =
  let q = Event_queue.create () in
  Event_queue.schedule q ~at:10 ignore;
  ignore (Event_queue.step q);
  Alcotest.check_raises "past is rejected"
    (Invalid_argument "Event_queue.schedule: at=5 is before now=10")
    (fun () -> Event_queue.schedule q ~at:5 ignore)

let test_run_until () =
  let q = Event_queue.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Event_queue.schedule q ~at:(i * 10) (fun () -> incr count)
  done;
  Event_queue.run_until q ~limit:55;
  Alcotest.(check int) "events up to limit" 5 !count;
  Alcotest.(check int) "pending remainder" 5 (Event_queue.pending q)

let test_heap_growth () =
  let q = Event_queue.create () in
  let count = ref 0 in
  for i = 1 to 10_000 do
    Event_queue.schedule q ~at:(10_000 - (i mod 100)) (fun () -> incr count)
  done;
  Event_queue.run q;
  Alcotest.(check int) "all fired" 10_000 !count

(* Once the heap has grown, an event costs the queue nothing: a round of
   [after] and [step] of a closure built beforehand allocates no minor
   words (a record per event would cost 4 each). The thousand pending
   events keep the sifts doing real work. *)
let test_no_allocation_per_event () =
  let q = Event_queue.create () in
  for _ = 1 to 1000 do
    Event_queue.schedule q ~at:1_000_000 ignore
  done;
  let fired = ref 0 in
  let action () = incr fired in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Event_queue.after q ~delay:1 action;
    ignore (Event_queue.step q)
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every round fired its event" 10_000 !fired;
  Alcotest.(check int) "the far events still pending" 1000
    (Event_queue.pending q);
  if words > 64. then
    Alcotest.failf "10,000 schedule+step rounds allocated %.0f minor words"
      words

let test_stats () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.add s "a" 4;
  Stats.set_max s "m" 7;
  Stats.set_max s "m" 3;
  Alcotest.(check int) "add" 5 (Stats.get s "a");
  Alcotest.(check int) "max keeps maximum" 7 (Stats.get s "m");
  Alcotest.(check int) "missing reads zero" 0 (Stats.get s "nope");
  Alcotest.(check (float 1e-9)) "ratio of missing denominator" 0.0
    (Stats.ratio s "a" "ten");
  Stats.add s "ten" 10;
  Alcotest.(check (float 1e-9)) "ratio" 0.5 (Stats.ratio s "a" "ten")

let test_counter_handles () =
  let s = Stats.create () in
  Stats.incr s "warm";
  let c = Stats.counter s "hot" in
  (* Resolved but never bumped: a zero counter is not listed. *)
  let listed () =
    (Stats.names s, Stats.to_alist s, Format.asprintf "%a" Stats.pp s)
  in
  let names, alist, text = listed () in
  Alcotest.(check (list string)) "unbumped handle: not in names" [ "warm" ]
    names;
  Alcotest.(check (list (pair string int))) "unbumped handle: not in to_alist"
    [ ("warm", 1) ] alist;
  Alcotest.(check string) "unbumped handle: not in pp"
    (Printf.sprintf "%-40s %d\n" "warm" 1) text;
  Stats.bump c;
  let names, alist, _ = listed () in
  Alcotest.(check (list string)) "listed after its first bump" [ "hot"; "warm" ]
    names;
  Alcotest.(check (list (pair string int)))
    "listed with the by-name cell's value" [ ("hot", 1); ("warm", 1) ] alist;
  Stats.bump_by c 4;
  Alcotest.(check int) "bumps land in the registry" 5 (Stats.get s "hot");
  Stats.incr s "hot";
  Alcotest.(check int) "same cell as string keys" 6 (Stats.counter_value c);
  (* A second handle for the same name aliases the same cell, and
     name-keyed set_max is visible through every handle. *)
  let c2 = Stats.counter s "hot" in
  Stats.bump c2;
  Alcotest.(check int) "second handle aliases the cell" 7
    (Stats.counter_value c);
  Stats.set_max s "hot" 100;
  Alcotest.(check int) "set_max through the name reaches handles" 100
    (Stats.counter_value c2);
  Stats.set_max s "hot" 42;
  Alcotest.(check int) "set_max keeps the maximum" 100 (Stats.get s "hot");
  Stats.bump c;
  Alcotest.(check int) "handles still live after set_max" 101
    (Stats.get s "hot");
  (* The handle-level max keeps the running maximum, by name as well. *)
  let m = Stats.counter s "peak" in
  Stats.bump_max m 7;
  Stats.bump_max m 3;
  Alcotest.(check int) "bump_max keeps the maximum" 7 (Stats.counter_value m);
  Stats.set_max s "peak" 5;
  Stats.bump_max m 9;
  Alcotest.(check int) "bump_max raises the by-name cell" 9 (Stats.get s "peak")

let test_probe () =
  let q = Event_queue.create () in
  let seen = ref [] in
  Event_queue.set_probe q (fun ~now ~pending ->
      seen := (now, pending) :: !seen);
  Event_queue.schedule q ~at:2 ignore;
  Event_queue.schedule q ~at:5 ignore;
  Event_queue.run q;
  Alcotest.(check (list (pair int int)))
    "probe observes (clock, remaining) at each step"
    [ (2, 1); (5, 0) ]
    (List.rev !seen);
  Event_queue.clear_probe q;
  Event_queue.schedule q ~at:9 ignore;
  Event_queue.run q;
  Alcotest.(check int) "cleared probe stops firing" 2 (List.length !seen)

let test_probe_is_passive () =
  (* Same schedule with and without a probe: identical order and clock. *)
  let run probe =
    let q = Event_queue.create () in
    let log = ref [] in
    if probe then Event_queue.set_probe q (fun ~now:_ ~pending:_ -> ());
    for i = 0 to 9 do
      Event_queue.schedule q
        ~at:(1 + ((i * 7) mod 5))
        (fun () -> log := i :: !log)
    done;
    Event_queue.run q;
    (List.rev !log, Event_queue.now q)
  in
  Alcotest.(check (pair (list int) int))
    "probe never perturbs the schedule" (run false) (run true)

let test_pool_order () =
  let tasks = List.init 37 (fun i () -> i * i) in
  Alcotest.(check (list int))
    "results in submission order, jobs=4"
    (List.init 37 (fun i -> i * i))
    (Pool.run ~jobs:4 tasks);
  Alcotest.(check (list int))
    "sequential path agrees"
    (Pool.run ~jobs:1 tasks)
    (Pool.run ~jobs:4 tasks)

let test_pool_map () =
  let items = Array.init 100 (fun i -> i) in
  Alcotest.(check (array int))
    "map ~jobs:3" (Array.map (fun i -> i + 1) items)
    (Pool.map ~jobs:3 (fun i -> i + 1) items)

exception Boom of int

let test_pool_exception () =
  (* All tasks run; the lowest-index failure is re-raised. *)
  let ran = Array.make 8 false in
  let tasks =
    List.init 8 (fun i () ->
        ran.(i) <- true;
        if i = 2 || i = 5 then raise (Boom i);
        i)
  in
  Alcotest.check_raises "lowest-index exception wins" (Boom 2) (fun () ->
      ignore (Pool.run ~jobs:4 tasks));
  Alcotest.(check bool) "later tasks still ran" true (Array.for_all Fun.id ran)

let prop_pool_matches_sequential =
  QCheck.Test.make ~name:"pool: parallel = sequential for pure tasks" ~count:30
    QCheck.(pair (int_range 1 8) (list_of_size (Gen.int_range 0 20) small_int))
    (fun (jobs, xs) ->
      let tasks = List.map (fun x () -> (2 * x) + 1) xs in
      Pool.run ~jobs tasks = List.map (fun f -> f ()) tasks)

let prop_rng_bounds =
  QCheck.Test.make ~name:"rng: int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_deterministic =
  QCheck.Test.make ~name:"rng: same seed, same stream" ~count:100
    QCheck.small_int
    (fun seed ->
      let a = Rng.create ~seed and b = Rng.create ~seed in
      List.init 20 (fun _ -> Rng.next a) = List.init 20 (fun _ -> Rng.next b))

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"rng: shuffle permutes" ~count:200
    QCheck.(pair small_int (list_of_size (Gen.int_range 0 50) int))
    (fun (seed, xs) ->
      let rng = Rng.create ~seed in
      let arr = Array.of_list xs in
      Rng.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

(* The heap against an oracle: events with random delays (mostly equal
   times, more than 64 pending so the heap grows), some scheduled from
   inside running actions, fire in a stable sort of (absolute time,
   insertion order); [pending] and [next_seq] match counts kept beside
   the queue at every schedule and every firing. *)
let prop_heap_matches_stable_sort =
  QCheck.Test.make ~name:"event queue = stable sort by (time, insertion)"
    ~count:200
    QCheck.(
      list_of_size (Gen.int_range 65 200)
        (pair (int_range 0 5) (list_of_size (Gen.int_range 0 2) (int_range 0 3))))
    (fun plan ->
      let q = Event_queue.create () in
      let scheduled = ref [] and fired = ref [] in
      let n_scheduled = ref 0 and n_fired = ref 0 in
      let counts_agree = ref true in
      let check_counts () =
        if Event_queue.pending q <> !n_scheduled - !n_fired
           || Event_queue.next_seq q <> !n_scheduled
        then counts_agree := false
      in
      let rec add delay children =
        let id = !n_scheduled in
        scheduled := (Event_queue.now q + delay, id) :: !scheduled;
        incr n_scheduled;
        Event_queue.after q ~delay (fun () ->
            incr n_fired;
            fired := id :: !fired;
            check_counts ();
            List.iter (fun d -> add d []) children);
        check_counts ()
      in
      List.iter (fun (delay, children) -> add delay children) plan;
      Event_queue.run q;
      let expected =
        List.stable_sort (fun (a, _) (b, _) -> compare a b)
          (List.rev !scheduled)
        |> List.map snd
      in
      !counts_agree && List.rev !fired = expected
      && Event_queue.pending q = 0)

let suite =
  let quick name f = Alcotest.test_case name `Quick f in
  [ quick "event ordering" test_ordering;
    quick "same-cycle FIFO" test_same_cycle_fifo;
    quick "scheduling during run" test_schedule_during_run;
    quick "past scheduling rejected" test_past_scheduling_rejected;
    quick "run_until" test_run_until;
    quick "heap growth" test_heap_growth;
    quick "no allocation per event" test_no_allocation_per_event;
    quick "stats counters" test_stats;
    quick "stats counter handles" test_counter_handles;
    quick "event-queue probe" test_probe;
    quick "probe is passive" test_probe_is_passive;
    quick "pool result order" test_pool_order;
    quick "pool map" test_pool_map;
    quick "pool exception propagation" test_pool_exception ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_heap_matches_stable_sort; prop_pool_matches_sequential; prop_rng_bounds; prop_rng_deterministic;
        prop_shuffle_permutation ]
