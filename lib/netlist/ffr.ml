type t = { is_stem : bool array; reaches_po : bool array }

let compute c =
  let n = Circuit.node_count c in
  let is_po = Array.make n false in
  Array.iter (fun o -> is_po.(o) <- true) c.Circuit.outputs;
  (* A stem bounds a fanout-free region: any node observed at more than one
     place (several fanout edges, or a primary output — which adds an
     implicit observation point beside any fanout), or at none (dead). *)
  let is_stem =
    Array.init n (fun i -> is_po.(i) || Array.length c.Circuit.fanouts.(i) <> 1)
  in
  (* Fanout edges strictly increase node indices, so one reverse sweep sees
     every fanout before its driver. *)
  let reaches_po = Array.make n false in
  for i = n - 1 downto 0 do
    reaches_po.(i) <-
      is_po.(i) || Array.exists (fun o -> reaches_po.(o)) c.Circuit.fanouts.(i)
  done;
  { is_stem; reaches_po }

let is_stem t i = t.is_stem.(i)
let reaches_po t i = t.reaches_po.(i)
