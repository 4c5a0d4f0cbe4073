module mirage/bench

go 1.22

require mirage v0.0.0

replace mirage => ../
