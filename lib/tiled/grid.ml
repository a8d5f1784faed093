type coord = { x : int; y : int }

type t = { failed : bool array; mutable any_failed : bool }

(* The Raw prototype's 4 x 4 fabric. *)
let width = 4
let height = 4

let create () = { failed = Array.make (width * height) false; any_failed = false }

let tiles _ = width * height

let tile_index _ { x; y } =
  if x < 0 || x >= width || y < 0 || y >= height then
    invalid_arg "Grid.tile_index";
  (y * width) + x

let coord_of_index t i =
  if i < 0 || i >= tiles t then invalid_arg "Grid.coord_of_index";
  { x = i mod width; y = i / width }

let fail_tile t c =
  t.failed.(tile_index t c) <- true;
  t.any_failed <- true

let tile_failed t c = t.failed.(tile_index t c)

let failed_tiles t =
  Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 t.failed

let hops a b = abs (a.x - b.x) + abs (a.y - b.y)

(* Dimension-ordered (XY) routing: each failed tile sitting on the route's
   interior forces a two-hop detour around it. *)
let detour_penalty t ~src ~dst =
  if not t.any_failed then 0
  else begin
    let pen = ref 0 in
    let check c = if tile_failed t c then pen := !pen + 2 in
    if dst.x <> src.x then begin
      let step = if dst.x > src.x then 1 else -1 in
      let x = ref (src.x + step) in
      while !x <> dst.x do
        check { x = !x; y = src.y };
        x := !x + step
      done;
      (* The corner tile, when the route turns. *)
      if dst.y <> src.y then check { x = dst.x; y = src.y }
    end;
    if dst.y <> src.y then begin
      let step = if dst.y > src.y then 1 else -1 in
      let y = ref (src.y + step) in
      while !y <> dst.y do
        check { x = dst.x; y = !y };
        y := !y + step
      done
    end;
    !pen
  end

let message_latency t ~src ~dst =
  if src = dst then 1
  else 1 + hops src dst + 1 + 1 + detour_penalty t ~src ~dst
