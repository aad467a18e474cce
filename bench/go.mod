module mbd/bench

go 1.24

require mbd v0.0.0

replace mbd => ../
