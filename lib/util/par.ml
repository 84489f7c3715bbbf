let num_domains = Pool.num_domains

let iter_chunks ?domains f n =
  let workers = min (Option.value domains ~default:(num_domains ())) (max 1 n) in
  if n <= 0 then ()
  else if workers <= 1 then f 0 (n - 1)
  else Pool.iter_chunks ~chunks:workers (Pool.default ()) f n
