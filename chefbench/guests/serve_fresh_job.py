
def job(msg):
    n = 0
    i = 0
    while i < {{LEN}}:
        if msg[i] == "{{MARK}}":
            n = n + 1
        i = i + 1
    acc = {{SALT}}
    k = 0
    while k < {{BOUND}}:
        acc = (acc * 31 + k + n) % 65521
        k = k + 1
    if n == {{LEN}}:
        raise AllMarks
    return acc
