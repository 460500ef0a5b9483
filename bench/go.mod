module egwalker/bench

go 1.24.0

require egwalker v0.0.0

replace egwalker => ../
