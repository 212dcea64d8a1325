(** In-memory span recorder for the traced benchmark run.

    A span is one call into a layer, recorded from the benchmark's side
    of the call: name, layer, start, end, the span that caused it, and
    the number of busy domains it stands for ([lanes]: a parallel
    [Launch.run] or a funnel at jobs = 2 keeps two domains busy). Spans
    opened on a worker domain with no open span of its own take the
    innermost span opened with [~ambient:true] as their parent, so the
    funnel's predict/measure calls hang under the funnel that spawned
    them.

    Work inside the library that no benchmark call brackets (pass
    transforms, verification) is read from the library's own busy-time
    counters: a span opened with [~counters] records how much of each
    counter accrued while it was open and treats it as child time.

    Nothing is recorded unless {!enabled} is set. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  layer : string;
  lanes : int;
  tid : int;
  t0 : float;
  t1 : float;
  counted : (string * float) list;
      (** (layer, busy seconds) read from library counters during the span *)
}

let enabled = ref false
let next_id = Atomic.make 1
let ambient_parent = Atomic.make 0
let stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])
let lock = Mutex.create ()
let finished : span list ref = ref []

let delta before after =
  List.map
    (fun (layer, v1) ->
      (layer, v1 -. Option.value ~default:0.0 (List.assoc_opt layer before)))
    after

let with_span ?(lanes = 1) ?(ambient = false)
    ?(counters : (unit -> (string * float) list) option) ~layer name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let outer = Domain.DLS.get stack in
    let parent =
      match outer with p :: _ -> p | [] -> Atomic.get ambient_parent
    in
    let saved_ambient = Atomic.get ambient_parent in
    Domain.DLS.set stack (id :: outer);
    if ambient then Atomic.set ambient_parent id;
    let c0 = match counters with Some c -> c () | None -> [] in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        let counted =
          match counters with Some c -> delta c0 (c ()) | None -> []
        in
        Domain.DLS.set stack outer;
        if ambient then Atomic.set ambient_parent saved_ambient;
        let s =
          {
            id;
            parent;
            name;
            layer;
            lanes;
            tid = (Domain.self () :> int);
            t0;
            t1;
            counted;
          }
        in
        Mutex.protect lock (fun () -> finished := s :: !finished))
      f
  end

let spans () = Mutex.protect lock (fun () -> List.rev !finished)

let busy s = (s.t1 -. s.t0) *. float_of_int s.lanes

let bump tbl key v =
  Hashtbl.replace tbl key (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key))

(** Busy seconds per layer: each span's duration times its lanes, minus
    the busy time of its child spans (on any domain) and of the counter
    time it recorded; counter time is credited to the counter's layer. *)
let self_times () : (string * float) list =
  let all = spans () in
  let child_busy = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent <> 0 then bump child_busy s.parent (busy s)) all;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let counted = List.fold_left (fun a (_, v) -> a +. v) 0.0 s.counted in
      let children = Option.value ~default:0.0 (Hashtbl.find_opt child_busy s.id) in
      bump totals s.layer (busy s -. children -. counted);
      List.iter (fun (layer, v) -> bump totals layer v) s.counted)
    all;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [] |> List.sort compare

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** Write every recorded span as Chrome trace-event JSON (complete
    ["X"] events, microseconds relative to [origin]). *)
let write_chrome ~origin path =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"id\":%d,\"parent\":%d,\"lanes\":%d%s}}"
        (json_string s.name) (json_string s.layer) s.tid
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent s.lanes
        (String.concat ""
           (List.map
              (fun (l, v) -> Printf.sprintf ",%s:%.6f" (json_string (l ^ "_s")) v)
              s.counted)))
    (spans ());
  output_string oc "]}\n";
  close_out oc
