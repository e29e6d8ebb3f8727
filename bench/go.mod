module flowmotif/bench

go 1.24

require flowmotif v0.0.0

replace flowmotif => ../
