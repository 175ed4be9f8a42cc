module fbf/bench

go 1.24

require fbf v0.0.0

replace fbf => ../
