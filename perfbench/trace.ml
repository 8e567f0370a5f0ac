(* Spans recorded by the benchmark around its calls into the library.

   A span has a name, start, end, parent and request id. Spans are kept
   in memory per domain and written out once, when the traced section
   ends; [report] reads the file back and turns it into per-name busy
   and self times. A span's self time is its duration minus the part
   covered by its direct children on the same domain. Spans opened on a
   domain with no open span of its own (pool workers) hang off the
   traced section's root. *)

type span = {
  id : int;
  parent : int;  (* -1 for the root *)
  rid : int;  (* request id, -1 when the span serves no single request *)
  dom : int;
  name : string;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let next_id = Atomic.make 0
let root_id = Atomic.make (-1)

type lane = { mutable stack : int list; mutable spans : span list }

let lanes : lane list ref = ref []
let lanes_lock = Mutex.create ()

let lane_key =
  Domain.DLS.new_key (fun () ->
      let l = { stack = []; spans = [] } in
      Mutex.protect lanes_lock (fun () -> lanes := l :: !lanes);
      l)

let record ?(rid = -1) name f =
  let l = Domain.DLS.get lane_key in
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match l.stack with p :: _ -> p | [] -> Atomic.get root_id in
  l.stack <- id :: l.stack;
  let t0 = Clock.now () in
  let finish () =
    let t1 = Clock.now () in
    l.stack <- List.tl l.stack;
    l.spans <-
      { id; parent; rid; dom = (Domain.self () :> int); name; t0; t1 } :: l.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let span ?rid name f = if !enabled then record ?rid name f else f ()

(* Cost of recording one span around an empty call, in ns. *)
let span_cost_ns () =
  let n = 100_000 in
  let l = Domain.DLS.get lane_key in
  let saved = l.spans in
  let t0 = Clock.now () in
  for _ = 1 to n do
    record "probe" ignore
  done;
  let dt = Clock.now () -. t0 in
  l.spans <- saved;
  1e9 *. dt /. float_of_int n

let reset () =
  Mutex.protect lanes_lock (fun () ->
      List.iter
        (fun l ->
          l.stack <- [];
          l.spans <- [])
        !lanes);
  Atomic.set root_id (-1)

(* Run [f] as the traced section: tracing on, one root span on the
   calling domain, every span written to [path] afterwards. *)
let section ~path f =
  reset ();
  enabled := true;
  let l = Domain.DLS.get lane_key in
  let id = Atomic.fetch_and_add next_id 1 in
  Atomic.set root_id id;
  l.stack <- [ id ];
  let t0 = Clock.now () in
  let v = Fun.protect ~finally:(fun () -> enabled := false) f in
  let t1 = Clock.now () in
  l.stack <- [];
  let root =
    { id; parent = -1; rid = -1; dom = (Domain.self () :> int); name = "section"; t0; t1 }
  in
  Out_channel.with_open_text path (fun oc ->
      let write s =
        Printf.fprintf oc "%d\t%d\t%d\t%d\t%s\t%.9f\t%.9f\n" s.id s.parent s.rid
          s.dom s.name s.t0 s.t1
      in
      write root;
      Mutex.protect lanes_lock (fun () ->
          List.iter (fun l -> List.iter write l.spans) !lanes));
  reset ();
  v

(* ---- reporting ---- *)

type summary = {
  wall_s : float;  (* root span *)
  unattributed_s : float;  (* the root's self time: inside no layer span *)
  busy : (string, int * float * float) Hashtbl.t;  (* name -> count, busy, self *)
  spans : span list;
}

let read path =
  In_channel.with_open_text path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | None -> List.rev acc
        | Some line ->
            let s =
              Scanf.sscanf line "%d\t%d\t%d\t%d\t%s@\t%f\t%f"
                (fun id parent rid dom name t0 t1 ->
                  { id; parent; rid; dom; name; t0; t1 })
            in
            go (s :: acc)
      in
      go [])

exception Inconsistent of string

(* Per-name counts, busy and self times. On the root's domain the
   traced wall time splits into the layer spans' self times plus the
   root's own self time, the part no layer accounts for, which is
   reported (not checked against anything). The split only holds when
   spans nest, and that is checked: each span lies inside its parent
   (a span on another domain inside the section), its direct children
   cover no more than its duration, and no other domain is busy longer
   than the section lasted. *)
let report path =
  let spans = read path in
  let root =
    match List.find_opt (fun s -> s.parent = -1) spans with
    | Some r -> r
    | None -> raise (Inconsistent "trace has no root span")
  in
  let wall = root.t1 -. root.t0 in
  (* the file keeps nanoseconds; allow for their rounding *)
  let eps = 1e-6 in
  let by_id = Hashtbl.create (List.length spans) in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let covered = Hashtbl.create (List.length spans) in
  List.iter
    (fun s ->
      if s.parent <> -1 then begin
        let p =
          match Hashtbl.find_opt by_id s.parent with
          | Some p -> p
          | None -> raise (Inconsistent (Printf.sprintf "span %d has no parent %d" s.id s.parent))
        in
        let outer = if p.dom = s.dom then p else root in
        if s.t0 < outer.t0 -. eps || s.t1 > outer.t1 +. eps || s.t1 < s.t0 then
          raise
            (Inconsistent
               (Printf.sprintf "span %s [%.9f, %.9f] is not inside %s [%.9f, %.9f]" s.name
                  s.t0 s.t1 outer.name outer.t0 outer.t1));
        if p.dom = s.dom then
          let c = Option.value ~default:0.0 (Hashtbl.find_opt covered p.id) in
          Hashtbl.replace covered p.id (c +. (s.t1 -. s.t0))
      end)
    spans;
  let self s =
    (s.t1 -. s.t0) -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id)
  in
  let busy = Hashtbl.create 16 in
  let per_dom = Hashtbl.create 4 in
  List.iter
    (fun s ->
      let sf = self s in
      if sf < -.eps then
        raise
          (Inconsistent
             (Printf.sprintf "children of span %s cover %.6f s more than it lasted" s.name (-.sf)));
      if s.parent <> -1 then begin
        let n, b, sl =
          Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt busy s.name)
        in
        Hashtbl.replace busy s.name (n + 1, b +. (s.t1 -. s.t0), sl +. sf)
      end;
      let d = Option.value ~default:0.0 (Hashtbl.find_opt per_dom s.dom) in
      Hashtbl.replace per_dom s.dom (d +. sf))
    spans;
  Hashtbl.iter
    (fun d total ->
      if d <> root.dom && total > wall +. eps then
        raise
          (Inconsistent
             (Printf.sprintf "domain %d is busy %.6f s in a %.6f s section" d
                total wall)))
    per_dom;
  { wall_s = wall; unattributed_s = Float.max 0.0 (self root); busy; spans }

let count s name = match Hashtbl.find_opt s.busy name with Some (n, _, _) -> n | None -> 0
let busy s name = match Hashtbl.find_opt s.busy name with Some (_, b, _) -> b | None -> 0.0
let self s name = match Hashtbl.find_opt s.busy name with Some (_, _, x) -> x | None -> 0.0

